// Package tier is the second spill tier under the swapping executor: a
// disk-backed blob store that cold swapped tensors and pool runs demote
// into when the pinned-host pool is under pressure, and promote back from
// transparently on swap-in. Where host memory stops, the tier continues —
// CSWAP's blobs are already compressed, so moving them one level further
// down the hierarchy costs only the (much smaller) compressed size, the
// cDMA premise applied to disk.
//
// Layout: one scratch file per store, <dir>/spill, carved into page-aligned
// extents the way the executor's arena carves memory. A blob is one WriteAt
// into an extent and one ReadAt back; no file is created, renamed or
// removed per blob. Extents come in size classes — whole pages, four
// classes per doubling above 16 KiB — so an extent is at most 25 % larger
// than its page-rounded blob. Each class keeps a LIFO free list that Delete,
// and a Put replacing a key, return extents to; the file grows only when a
// class has none free. The in-memory index maps each key to its extent,
// payload length, a CRC-32 of the payload and the caller's metadata JSON,
// which never reaches the disk.
//
// The tier is scratch for one process: handles live only in memory, so
// nothing a previous process wrote can be named again. Open removes what
// one left — its spill file and any *.blob/*.tmp files of the older
// file-per-blob layout — and starts empty; Close removes the file. Put
// writes the blob, passes the faultinject.SiteTierCommit seam, then updates
// the index, so a failed write or an injected fault leaves the index, and
// any previous blob under the key, unchanged. GetInto checks the CRC: bytes
// that changed on disk return ErrCorrupt, never torn data.
package tier

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"cswap/internal/faultinject"
)

// Store errors.
var (
	// ErrFull reports that admitting the blob would exceed the store's
	// byte capacity; the caller must evict (or give up) first.
	ErrFull = errors.New("tier: store full")
	// ErrNotFound reports a key with no committed blob.
	ErrNotFound = errors.New("tier: blob not found")
	// ErrCorrupt reports a committed blob that failed its integrity check;
	// Get never returns torn bytes.
	ErrCorrupt = errors.New("tier: blob corrupt")
)

// SpillName is the store's one file under its directory.
const SpillName = "spill"

// page is the extent alignment and the smallest size class.
const page = 4 << 10

// classOf returns the size class of an n-byte blob: n rounded up to whole
// pages, and above 16 KiB to a quarter of the power of two below it, so
// the extent is at most 25 % larger than the page-rounded blob.
func classOf(n int) int64 {
	size := max(int64(n+page-1)&^(page-1), page)
	step := max(page, int64(1)<<(bits.Len64(uint64(size-1))-1)/4)
	return (size + step - 1) / step * step
}

// extent is one committed blob's place in the spill file.
type extent struct {
	off, class int64
	n          int
	crc        uint32
	meta       []byte // the caller's metadata JSON, kept only in memory
}

// Store is the file-backed spill tier. All methods are safe for concurrent
// use; operations serialize on one lock held across their file I/O, which
// is what bounds disk concurrency: one tier operation at a time, whoever
// issues it.
type Store struct {
	dir       string
	cap       int64 // bytes; 0 = unbounded
	inj       *faultinject.Injector
	f         *os.File
	reclaimed int64

	mu     sync.Mutex
	index  map[string]extent
	free   map[int64][]int64 // size class → offsets of free extents, last freed on top
	end    int64             // where the next appended extent starts
	used   int64
	closed bool
}

// Open creates a store rooted at dir with the given byte capacity
// (0 = unbounded). It first removes what a previous process left in dir —
// the spill file and old-format *.blob/*.tmp files, never other files —
// and records their bytes (Reclaimed); it reads none of them. inj
// optionally injects a failure between a blob's write and its index update
// (faultinject.SiteTierCommit); nil injects nothing.
func Open(dir string, capacity int64, inj *faultinject.Injector) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("tier: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tier: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tier: %w", err)
	}
	s := &Store{dir: dir, cap: capacity, inj: inj, index: map[string]extent{}, free: map[int64][]int64{}}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || name != SpillName && !strings.HasSuffix(name, ".blob") && !strings.HasSuffix(name, ".tmp") {
			continue
		}
		info, err := ent.Info()
		if err == nil {
			err = os.Remove(filepath.Join(dir, name))
		}
		if err != nil {
			return nil, fmt.Errorf("tier: %w", err)
		}
		s.reclaimed += info.Size()
	}
	if s.f, err = os.OpenFile(filepath.Join(dir, SpillName), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600); err != nil {
		return nil, fmt.Errorf("tier: %w", err)
	}
	return s, nil
}

// Close closes the spill file and removes it. Later calls on the store
// fail; closing a nil or closed store is a no-op.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return errors.Join(s.f.Close(), os.Remove(s.f.Name()))
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Capacity returns the store's byte capacity (0 = unbounded).
func (s *Store) Capacity() int64 { return s.cap }

// Reclaimed returns the bytes of the files Open removed.
func (s *Store) Reclaimed() int64 { return s.reclaimed }

// Used returns the committed payload bytes.
func (s *Store) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Len returns the number of committed blobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Keys returns the committed keys, sorted.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// take returns the offset of a free extent of class c, appending one to
// the file when the class has none.
func (s *Store) take(c int64) int64 {
	if offs := s.free[c]; len(offs) > 0 {
		s.free[c] = offs[:len(offs)-1]
		return offs[len(offs)-1]
	}
	off := s.end
	s.end += c
	return off
}

// release returns x's extent to its class's free list.
func (s *Store) release(x extent) { s.free[x.class] = append(s.free[x.class], x.off) }

// Put commits blob under key with its JSON-serialisable metadata,
// replacing any previous blob. It fails with ErrFull when the store
// cannot hold the payload; any failure — including an injected
// SiteTierCommit fault — leaves the index unchanged and the previous blob,
// if any, readable. The blob goes to the file from the caller's slice in
// one write, and the caller keeps ownership of it.
func (s *Store) Put(key string, blob []byte, meta any) error {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("tier: put %q: %w", key, err)
	}
	x := extent{class: classOf(len(blob)), n: len(blob), crc: crc32.ChecksumIEEE(blob), meta: metaJSON}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, replaces := s.index[key]
	if s.cap > 0 && s.used+int64(x.n-prev.n) > s.cap {
		return fmt.Errorf("%w: %q needs %d, %d of %d in use", ErrFull, key, x.n, s.used, s.cap)
	}
	x.off = s.take(x.class)
	_, err = s.f.WriteAt(blob, x.off)
	// The seam crash-consistency tests kill the store at: the blob is
	// written but not yet in the index.
	if err == nil {
		err = s.inj.Fail(faultinject.SiteTierCommit)
	}
	if err != nil {
		s.release(x)
		return fmt.Errorf("tier: put %q: %w", key, err)
	}
	if replaces {
		s.release(prev)
	}
	s.index[key] = x
	s.used += int64(x.n - prev.n)
	return nil
}

// Get returns a copy of the committed blob; see GetInto.
func (s *Store) Get(key string, metaOut any) ([]byte, error) {
	return s.GetInto(key, metaOut, func(n int) []byte { return make([]byte, n) })
}

// GetInto reads the committed blob into the buffer alloc returns for its
// size (any length, capacity at least n) and, when metaOut is non-nil,
// unmarshals the blob's metadata into it. A blob whose bytes fail the CRC
// returns ErrCorrupt, never torn data, and keeps its entry, so the caller
// can still Delete it (the buffer alloc handed out is dropped).
func (s *Store) GetInto(key string, metaOut any, alloc func(n int) []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	x, ok := s.index[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	buf := alloc(x.n)[:x.n]
	_, err := s.f.ReadAt(buf, x.off)
	switch {
	case errors.Is(err, io.EOF):
		err = fmt.Errorf("%w: short read", ErrCorrupt)
	case err == nil && crc32.ChecksumIEEE(buf) != x.crc:
		err = fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	case err == nil && metaOut != nil:
		err = json.Unmarshal(x.meta, metaOut)
	}
	if err != nil {
		return nil, fmt.Errorf("tier: get %q: %w", key, err)
	}
	return buf, nil
}

// Delete removes key's blob, returning its extent to the free list.
// Deleting an absent key is a no-op returning false.
func (s *Store) Delete(key string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	x, ok := s.index[key]
	if !ok {
		return false, nil
	}
	delete(s.index, key)
	s.release(x)
	s.used -= int64(x.n)
	return true, nil
}
