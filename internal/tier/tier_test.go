package tier

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cswap/internal/faultinject"
)

type meta struct {
	RawBytes int64
	Alg      string
}

func open(t testing.TB, dir string, capacity int64, inj *faultinject.Injector) *Store {
	t.Helper()
	s, err := Open(dir, capacity, inj)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// names lists dir's entries.
func names(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// spillSize is the apparent size of the store's spill file.
func spillSize(t testing.TB, s *Store) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(s.Dir(), SpillName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// flip inverts one byte of the spill file at off, behind the store's back.
func flip(t testing.TB, s *Store, off int64) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(s.Dir(), SpillName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0, nil)
	blob := []byte("compressed-ish payload bytes")
	want := meta{RawBytes: 4096, Alg: "zvc"}
	if err := s.Put("tenant/tensor-0", blob, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if s.Len() != 1 || s.Used() != int64(len(blob)) {
		t.Fatalf("index after put: len=%d used=%d", s.Len(), s.Used())
	}
	var got meta
	back, err := s.Get("tenant/tensor-0", &got)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(back, blob) {
		t.Fatalf("payload mismatch: got %q want %q", back, blob)
	}
	if got != want {
		t.Fatalf("meta mismatch: got %+v want %+v", got, want)
	}
	if ok, err := s.Delete("tenant/tensor-0"); err != nil || !ok {
		t.Fatalf("Delete: ok=%v err=%v", ok, err)
	}
	if s.Len() != 0 || s.Used() != 0 {
		t.Fatalf("index after delete: len=%d used=%d", s.Len(), s.Used())
	}
	if _, err := s.Get("tenant/tensor-0", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v, want ErrNotFound", err)
	}
	if ok, _ := s.Delete("tenant/tensor-0"); ok {
		t.Fatal("double delete reported true")
	}
}

func TestPutReplacesAndAccountsCapacity(t *testing.T) {
	s := open(t, t.TempDir(), 100, nil)
	if err := s.Put("k", make([]byte, 80), nil); err != nil {
		t.Fatalf("Put 80: %v", err)
	}
	// A replacement is charged against the slot it frees, not on top of it.
	if err := s.Put("k", make([]byte, 90), nil); err != nil {
		t.Fatalf("replace 90: %v", err)
	}
	if s.Used() != 90 || s.Len() != 1 {
		t.Fatalf("used=%d len=%d after replace", s.Used(), s.Len())
	}
	if err := s.Put("k2", make([]byte, 20), nil); !errors.Is(err, ErrFull) {
		t.Fatalf("overfull put: %v, want ErrFull", err)
	}
	if keys := s.Keys(); !slices.Equal(keys, []string{"k"}) {
		t.Fatalf("keys %q after a refused put, want [k]", keys)
	}
}

// TestReopenStartsEmpty: the tier is scratch for one process, so a store
// opened on a used directory starts empty, reporting the bytes of the
// spill file it removed, and is usable at once.
func TestReopenStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0, nil)
	if s.Reclaimed() != 0 {
		t.Fatalf("fresh directory: Reclaimed = %d, want 0", s.Reclaimed())
	}
	for _, k := range []string{"a/x", "b/y"} {
		if err := s.Put(k, bytes.Repeat([]byte(k), 3000), meta{RawBytes: 6000}); err != nil {
			t.Fatal(err)
		}
	}
	left := spillSize(t, s)

	s2 := open(t, dir, 0, nil)
	if s2.Len() != 0 || s2.Used() != 0 {
		t.Fatalf("reopened store holds %d blobs / %d bytes, want none", s2.Len(), s2.Used())
	}
	if s2.Reclaimed() != left {
		t.Fatalf("Reclaimed = %d, want the %d-byte spill file left behind", s2.Reclaimed(), left)
	}
	if _, err := s2.Get("a/x", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a previous process's key: %v, want ErrNotFound", err)
	}
	if err := s2.Put("a/x", []byte("again"), nil); err != nil {
		t.Fatal(err)
	}
	if back, err := s2.Get("a/x", nil); err != nil || string(back) != "again" {
		t.Fatalf("Get after reopen: %q %v", back, err)
	}
}

// TestOpenRemovesOldFormatFiles: Open removes the spill file and the
// *.blob/*.tmp files of the file-per-blob layout, and nothing else.
func TestOpenRemovesOldFormatFiles(t *testing.T) {
	dir := t.TempDir()
	old := map[string]int{SpillName: 100, "tenant%2Ft%23h1.blob": 37, "torn.blob.tmp": 7}
	foreign := []string{"notes.txt", "spill.bak", "blob"}
	for name, n := range old {
		if err := os.WriteFile(filepath.Join(dir, name), make([]byte, n), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("keep me"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.blob"), 0o755); err != nil {
		t.Fatal(err)
	}

	s := open(t, dir, 0, nil)
	if s.Reclaimed() != 100+37+7 || s.Len() != 0 {
		t.Fatalf("Reclaimed = %d, Len = %d; want 144, 0", s.Reclaimed(), s.Len())
	}
	want := append([]string{SpillName, "sub.blob"}, foreign...)
	slices.Sort(want)
	if got := names(t, dir); !slices.Equal(got, want) {
		t.Fatalf("directory after Open: %q, want %q", got, want)
	}
	if spillSize(t, s) != 0 {
		t.Fatal("Open kept the previous spill file's bytes")
	}
}

func TestGetRefusesCorruptBlob(t *testing.T) {
	s := open(t, t.TempDir(), 0, nil)
	payload := []byte("payload-payload-payload")
	if err := s.Put("k", payload, nil); err != nil {
		t.Fatal(err)
	}
	flip(t, s, s.index["k"].off+int64(len(payload))-3)
	if _, err := s.Get("k", nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of rotted blob: %v, want ErrCorrupt", err)
	}
	// Truncation (a torn write) is refused the same way.
	if err := os.Truncate(filepath.Join(s.Dir(), SpillName), int64(len(payload))/2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k", nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of truncated blob: %v, want ErrCorrupt", err)
	}
	// A refused read keeps the entry, so its owner can still delete it.
	if ok, err := s.Delete("k"); !ok || err != nil || s.Len() != 0 || s.Used() != 0 {
		t.Fatalf("Delete after a corrupt read: ok=%v err=%v len=%d used=%d", ok, err, s.Len(), s.Used())
	}
}

// TestCommitFaultLeavesBlobCleanlyAbsent: a fault between the write and
// the index update leaves the index as it was — a new key absent, a
// replaced key's previous blob readable — and the extent the write used
// is reused by the retry instead of growing the file.
func TestCommitFaultLeavesBlobCleanlyAbsent(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{Site: faultinject.SiteTierCommit, Mode: faultinject.Fail, After: 2, Every: 2})
	s := open(t, t.TempDir(), 0, inj)
	if err := s.Put("t/old", []byte("survivor"), nil); err != nil {
		t.Fatal(err)
	}
	size := spillSize(t, s)
	err := s.Put("t/x", bytes.Repeat([]byte("doomed"), 1000), nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Put under commit fault: %v, want ErrInjected", err)
	}
	if keys := s.Keys(); !slices.Equal(keys, []string{"t/old"}) || s.Used() != int64(len("survivor")) {
		t.Fatalf("failed commit left index state: keys=%q used=%d", keys, s.Used())
	}
	if _, err := s.Get("t/x", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after failed commit: %v, want ErrNotFound", err)
	}
	grown := spillSize(t, s)
	if grown <= size {
		t.Fatalf("the failed write did not reach the file (%d → %d bytes)", size, grown)
	}
	// The third put commits, into the extent the failed write gave back.
	if err := s.Put("t/x", bytes.Repeat([]byte("doomed"), 1000), nil); err != nil {
		t.Fatalf("retry put: %v", err)
	}
	if spillSize(t, s) != grown || s.Len() != 2 {
		t.Fatalf("retry grew the file %d → %d bytes, len %d", grown, spillSize(t, s), s.Len())
	}

	// The fourth put fails too: a failed replacement keeps the previous blob.
	if err := s.Put("t/old", []byte("replacement"), nil); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("replacement put: %v, want ErrInjected", err)
	}
	if back, err := s.Get("t/old", nil); err != nil || string(back) != "survivor" || s.Len() != 2 {
		t.Fatalf("after a failed replacement: %q %v len=%d, want the survivor", back, err, s.Len())
	}
}

func TestKeysEscapeSafely(t *testing.T) {
	s := open(t, t.TempDir(), 0, nil)
	keys := []string{"a/b", "a%2Fb", "../escape", "plain", "sp ace"}
	for _, k := range keys {
		if err := s.Put(k, []byte(k), nil); err != nil {
			t.Fatalf("Put %q: %v", k, err)
		}
	}
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d (keys must not collide)", s.Len(), len(keys))
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	if got := s.Keys(); !slices.Equal(got, want) {
		t.Fatalf("Keys = %q, want %q", got, want)
	}
	for _, k := range keys {
		back, err := s.Get(k, nil)
		if err != nil || !bytes.Equal(back, []byte(k)) {
			t.Fatalf("Get %q: %q %v", k, back, err)
		}
	}
	// Keys name nothing on disk: the directory holds the spill file alone.
	if got := names(t, s.Dir()); !slices.Equal(got, []string{SpillName}) {
		t.Fatalf("directory holds %q, want only %s", got, SpillName)
	}
}

// TestCloseRemovesSpillFile: Close removes the file, is idempotent, and
// later calls fail instead of touching the directory.
func TestCloseRemovesSpillFile(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0, nil)
	if err := s.Put("k", []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := names(t, dir); len(got) != 0 {
		t.Fatalf("directory after Close: %q, want empty", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Put("k2", []byte("v"), nil); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if err := (*Store)(nil).Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

// TestCyclesCreateNoDirectoryEntries: a thousand Put/Delete cycles leave
// the directory untouched — the spill file its one entry, and the
// directory's mtime, which every create, rename and unlink in it moves,
// unchanged.
func TestCyclesCreateNoDirectoryEntries(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0, nil)
	before, err := os.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 100<<10)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("t/k%d", i%7)
		if err := s.Put(key, blob[:len(blob)-i], nil); err != nil {
			t.Fatal(err)
		}
		if i%3 != 0 {
			if _, err := s.Delete(key); err != nil {
				t.Fatal(err)
			}
		}
	}
	after, err := os.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(t, dir); !slices.Equal(got, []string{SpillName}) {
		t.Fatalf("directory holds %q, want only %s", got, SpillName)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatalf("directory mtime moved %v → %v: an entry was created or removed", before.ModTime(), after.ModTime())
	}
}

// TestSizeClasses pins the extent bound: page-aligned, never smaller than
// the blob, at most 25 % over its page-rounded length, and monotone.
func TestSizeClasses(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int64
	}{{0, 4096}, {1, 4096}, {4096, 4096}, {4097, 8192}, {16384, 16384}, {16385, 20480}, {36864, 40960}, {570368, 655360}} {
		if got := classOf(c.n); got != c.want {
			t.Errorf("classOf(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	prev := int64(0)
	for n := 1; n <= 4<<20; n += 1 + n/97 {
		c, pages := classOf(n), int64(n+page-1)&^(page-1)
		if c%page != 0 || c < pages || 4*c > 5*pages || c < prev {
			t.Fatalf("classOf(%d) = %d: page-rounded %d, previous class %d", n, c, pages, prev)
		}
		prev = c
	}
}

// TestStoreModel replays a seeded sequence of Put, replace, Delete and
// GetInto calls, blobs 1 B to 2 MiB, against a map model: reads are
// bit-exact; Used, Len and Keys match the model; the directory holds the
// spill file alone; replaying an identical cycle does not grow the file;
// and a flipped byte inside an extent reads as ErrCorrupt while its key
// stays deletable. A failure names its seed and step.
func TestStoreModel(t *testing.T) {
	steps := 400
	if testing.Short() {
		steps = 100
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { replayModel(t, seed, steps) })
	}
}

func replayModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	s := open(t, t.TempDir(), 0, nil)
	model := map[string][]byte{}
	blob := func() []byte {
		b := make([]byte, 1+rng.Intn(1<<rng.Intn(22))) // log-uniform, 1 B .. 2 MiB
		rng.Read(b)
		return b
	}
	check := func(step int, op string) {
		t.Helper()
		var used int64
		for _, b := range model {
			used += int64(len(b))
		}
		want := make([]string, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		slices.Sort(want)
		if got := s.Keys(); s.Used() != used || s.Len() != len(model) || !slices.Equal(got, want) {
			t.Fatalf("seed %d step %d (%s): used %d len %d keys %q, model %d %d %q",
				seed, step, op, s.Used(), s.Len(), got, used, len(model), want)
		}
		if got := names(t, s.Dir()); !slices.Equal(got, []string{SpillName}) {
			t.Fatalf("seed %d step %d (%s): directory holds %q", seed, step, op, got)
		}
	}
	read := func(step int, key string) {
		t.Helper()
		got, err := s.GetInto(key, nil, func(n int) []byte { return make([]byte, 0, n+rng.Intn(64)) })
		if err != nil || !bytes.Equal(got, model[key]) {
			t.Fatalf("seed %d step %d: GetInto(%s) = %d bytes, %v; model holds %d bytes", seed, step, key, len(got), err, len(model[key]))
		}
	}

	for step := 0; step < steps; step++ {
		key := fmt.Sprintf("tenant%d/t#p%d@0", rng.Intn(2), rng.Intn(12))
		_, had := model[key]
		switch r := rng.Intn(10); {
		case r < 5: // put, or replace when the key is committed
			b := blob()
			if err := s.Put(key, b, nil); err != nil {
				t.Fatalf("seed %d step %d: Put(%s, %d bytes): %v", seed, step, key, len(b), err)
			}
			model[key] = b
			check(step, "put")
		case r < 8:
			ok, err := s.Delete(key)
			if err != nil || ok != had {
				t.Fatalf("seed %d step %d: Delete(%s) = %v, %v; model had it: %v", seed, step, key, ok, err, had)
			}
			delete(model, key)
			check(step, "delete")
		default:
			if !had {
				if _, err := s.Get(key, nil); !errors.Is(err, ErrNotFound) {
					t.Fatalf("seed %d step %d: Get(%s) of an absent key: %v", seed, step, key, err)
				}
				continue
			}
			read(step, key)
		}
	}
	for key := range model {
		read(steps, key)
	}

	// Two identical cycles: the second takes every extent from the free
	// lists the first filled.
	cycle := make([][]byte, 8)
	for i := range cycle {
		cycle[i] = blob()
	}
	size := int64(0)
	for round := 0; round < 2; round++ {
		for i, b := range cycle {
			if err := s.Put(fmt.Sprintf("cycle/%d", i), b, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := range cycle {
			if _, err := s.Delete(fmt.Sprintf("cycle/%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if round == 1 && spillSize(t, s) != size {
			t.Fatalf("seed %d: replaying the cycle grew the file %d → %d bytes", seed, size, spillSize(t, s))
		}
		size = spillSize(t, s)
	}

	// Corruption inside an extent is caught and leaves the key deletable.
	if err := s.Put("rot", blob(), nil); err != nil {
		t.Fatal(err)
	}
	x := s.index["rot"]
	flip(t, s, x.off+rng.Int63n(int64(x.n)))
	if _, err := s.Get("rot", nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("seed %d: Get of a flipped extent: %v, want ErrCorrupt", seed, err)
	}
	if ok, err := s.Delete("rot"); !ok || err != nil {
		t.Fatalf("seed %d: Delete of the corrupt key: %v, %v", seed, ok, err)
	}
	check(steps, "corrupt")
}

// BenchmarkTierCycle is tier-spill's steady state at the store: one Put,
// GetInto and Delete of a 557 KiB blob (the workload's ZVC size) per op,
// over 49 keys round-robin (its tier hits per pass), reading into one
// reused buffer the way promotions read into the arena.
func BenchmarkTierCycle(b *testing.B) {
	s := open(b, b.TempDir(), 0, nil)
	blob := make([]byte, 557<<10)
	rand.New(rand.NewSource(1)).Read(blob)
	keys := make([]string, 49)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench/t%d#p%d@0", i, i)
	}
	buf := make([]byte, len(blob))
	into := func(int) []byte { return buf }
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[i%len(keys)]
		if err := s.Put(key, blob, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := s.GetInto(key, nil, into); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Delete(key); err != nil {
			b.Fatal(err)
		}
	}
}
