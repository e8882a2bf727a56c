package tier

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cswap/internal/faultinject"
)

type meta struct {
	RawBytes int64
	Alg      string
}

func open(t *testing.T, dir string, capacity int64, inj *faultinject.Injector) *Store {
	t.Helper()
	s, err := Open(dir, capacity, inj)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0, nil)
	blob := []byte("compressed-ish payload bytes")
	want := meta{RawBytes: 4096, Alg: "zvc"}
	if err := s.Put("tenant/tensor-0", blob, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if !s.Contains("tenant/tensor-0") || s.Len() != 1 || s.Used() != int64(len(blob)) {
		t.Fatalf("index after put: contains=%v len=%d used=%d", s.Contains("tenant/tensor-0"), s.Len(), s.Used())
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
	if s.Contains("tenant/tensor-0") || s.Used() != 0 {
		t.Fatalf("index after delete: contains=%v used=%d", s.Contains("tenant/tensor-0"), s.Used())
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
	if s.Contains("k2") {
		t.Fatal("refused put left an index entry")
	}
}

func TestReopenRecoversCommittedBlobs(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0, nil)
	if err := s.Put("a/x", []byte("alpha"), meta{RawBytes: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b/y", []byte("bravo-bravo"), meta{RawBytes: 11}); err != nil {
		t.Fatal(err)
	}

	// A new incarnation over the same directory sees exactly the committed
	// state: both blobs, bit-identical, index rebuilt from the files.
	s2 := open(t, dir, 0, nil)
	if s2.Len() != 2 || s2.Used() != int64(len("alpha")+len("bravo-bravo")) {
		t.Fatalf("recovered len=%d used=%d", s2.Len(), s2.Used())
	}
	if got := s2.Stats().Recovered; got != 2 {
		t.Fatalf("Recovered = %d, want 2", got)
	}
	var m meta
	back, err := s2.Get("b/y", &m)
	if err != nil || !bytes.Equal(back, []byte("bravo-bravo")) || m.RawBytes != 11 {
		t.Fatalf("recovered get: %q %+v %v", back, m, err)
	}
}

func TestOpenScrubsTmpAndCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0, nil)
	if err := s.Put("keep", []byte("keep-me"), nil); err != nil {
		t.Fatal(err)
	}
	// An uncommitted write (crash between blob write and rename) and a
	// bit-rotted committed blob.
	if err := os.WriteFile(filepath.Join(dir, "torn.blob.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := s.path("keep")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rot := append([]byte(nil), buf...)
	rot[len(rot)-1] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, "rotted.blob"), rot, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0, nil)
	if got := s2.Stats().Scrubbed; got != 2 {
		t.Fatalf("Scrubbed = %d, want 2", got)
	}
	if s2.Len() != 1 || !s2.Contains("keep") {
		t.Fatalf("recovered len=%d contains(keep)=%v", s2.Len(), s2.Contains("keep"))
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("%d files survive the scrub, want 1", len(entries))
	}
}

func TestGetRefusesCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0, nil)
	if err := s.Put("k", []byte("payload-payload-payload"), nil); err != nil {
		t.Fatal(err)
	}
	path := s.path("k")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-3] ^= 0x10
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k", nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of rotted blob: %v, want ErrCorrupt", err)
	}
	// Truncation (a torn write) is refused the same way.
	if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k", nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of truncated blob: %v, want ErrCorrupt", err)
	}
}

func TestCommitFaultLeavesBlobCleanlyAbsent(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(faultinject.Fault{Site: faultinject.SiteTierCommit, Mode: faultinject.Fail})
	s := open(t, dir, 0, inj)
	err := s.Put("t/x", []byte("doomed"), nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Put under commit fault: %v, want ErrInjected", err)
	}
	if s.Contains("t/x") || s.Used() != 0 {
		t.Fatalf("failed commit left index state: contains=%v used=%d", s.Contains("t/x"), s.Used())
	}
	// The "restart": reopening the directory finds nothing to recover —
	// the blob is cleanly absent, not torn.
	s2 := open(t, dir, 0, nil)
	if s2.Len() != 0 || s2.Stats().Recovered != 0 {
		t.Fatalf("reopen after failed commit: len=%d recovered=%d", s2.Len(), s2.Stats().Recovered)
	}
	if _, err := s2.Get("t/x", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after failed commit: %v, want ErrNotFound", err)
	}
	// The second attempt (the injector fires once) commits normally.
	if err := s.Put("t/x", []byte("doomed"), nil); err != nil {
		t.Fatalf("retry put: %v", err)
	}
	if !s.Contains("t/x") {
		t.Fatal("retry put did not commit")
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
	for _, k := range keys {
		back, err := s.Get(k, nil)
		if err != nil || !bytes.Equal(back, []byte(k)) {
			t.Fatalf("Get %q: %q %v", k, back, err)
		}
	}
	// Every file stays inside the store directory.
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(keys) {
		t.Fatalf("%d files for %d keys", len(entries), len(keys))
	}
}

// TestGoldenBlobFile pins the bytes on disk against a file recorded before
// Put stopped assembling a header+meta+blob image: the two-write Put must
// produce that file exactly, and GetInto must read the recorded file back
// into the buffer its allocator hands out.
func TestGoldenBlobFile(t *testing.T) {
	const name = "tenant%2Ft%23h1.blob"
	golden, err := hex.DecodeString("54575343010000001d0000002500000008442e347b225261774279746573223a343039362c22416c67223a227a7663227d" +
		"626c6f62206279746573200001ff2061732074686520636f646563206c656674207468656d")
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("blob bytes \x00\x01\xff as the codec left them")
	dir := t.TempDir()
	s := open(t, dir, 0, nil)
	if err := s.Put("tenant/t#h1", blob, meta{RawBytes: 4096, Alg: "zvc"}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, golden) {
		t.Fatalf("Put wrote\n  %x\nwant the recorded\n  %x (%v)", got, golden, err)
	}

	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	s = open(t, dir, 0, nil)
	var handed []byte
	var m meta
	got, err := s.GetInto("tenant/t#h1", &m, func(n int) []byte {
		handed = make([]byte, 0, n+7)
		return handed
	})
	if err != nil || !bytes.Equal(got, blob) || m != (meta{RawBytes: 4096, Alg: "zvc"}) {
		t.Fatalf("GetInto of the recorded file: %q, %+v, %v", got, m, err)
	}
	if &got[0] != &handed[:1][0] {
		t.Error("GetInto did not read into the buffer its allocator handed out")
	}
}
