package metrics

// Event is one structured notification from an instrumented component —
// the qualitative channel beside the registry's quantitative one (a BO
// probe, a codec fallback, an iteration boundary).
type Event struct {
	Name  string
	Attrs map[string]string
}

// Observer is the single instrumentation surface threaded through the
// CSWAP stack: a metrics registry and an optional structured event hook.
// Components receive a *Observer and record through it; a nil Observer is
// valid everywhere and costs ~zero — every method no-ops on a nil
// receiver, and the registry it exposes is nil (whose instruments also
// no-op).
//
// Concurrent swap streams may share one observer: registry instruments
// are lock-free, and OnEvent must be safe for concurrent use by its
// provider.
type Observer struct {
	// Metrics receives counters, gauges, and histograms. Nil disables
	// quantitative recording.
	Metrics *Registry
	// OnEvent, when non-nil, receives structured events.
	OnEvent func(Event)
}

// NewObserver returns an observer with a fresh registry and no event hook.
func NewObserver() *Observer { return &Observer{Metrics: NewRegistry()} }

// Reg returns the observer's registry; nil-safe, so call sites can chain
// o.Reg().Counter(...) unconditionally.
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Emit fires the structured event hook with alternating key/value attrs.
func (o *Observer) Emit(name string, attrs ...string) {
	if o == nil || o.OnEvent == nil {
		return
	}
	var m map[string]string
	if len(attrs) > 1 {
		m = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			m[attrs[i]] = attrs[i+1]
		}
	}
	o.OnEvent(Event{Name: name, Attrs: m})
}
