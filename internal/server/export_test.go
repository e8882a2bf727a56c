package server

// SchedHeld reports how many admission slots are held, for the external
// tests' shutdown checks.
func (s *Server) SchedHeld() int { return s.sched.Held() }
