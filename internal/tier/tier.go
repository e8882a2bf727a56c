// Package tier is the second spill tier under the swapping executor: a
// file-backed blob store that cold swapped tensors and pool runs demote
// into when the pinned-host pool is under pressure, and promote back from
// transparently on swap-in. Where host memory stops, the tier continues —
// CSWAP's blobs are already compressed, so moving them one level further
// down the hierarchy costs only the (much smaller) compressed size, the
// cDMA premise applied to disk.
//
// Layout: one file per blob under the store directory, named by the
// URL-escaped key (keys look like the host pool's "tenant/tensor" names).
// Each file carries a fixed header (magic, version, section lengths, a
// CRC-32 over metadata+payload), a JSON metadata section, and the raw blob
// bytes. The in-memory index — key → committed payload bytes — is the
// store's only in-memory record: it answers Contains, Keys and Len and
// carries the occupancy accounting the capacity check runs against; a
// blob's metadata lives in its file and is read with the blob (Get).
//
// Crash-consistency contract: Put writes the complete file to a temporary
// name and renames it into place — the rename is the commit point. A crash
// (or an injected faultinject.SiteTierCommit failure) between the blob
// write and the commit leaves at most a *.tmp file, which Open deletes; a
// torn or bit-rotted blob fails its CRC and is scrubbed at Open and
// refused at Get. A demotion interrupted before commit therefore leaves
// the blob absent from the tier — and still owned by the executor's host
// state — never readable-but-torn.
package tier

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/url"
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

const (
	magic      = 0x43535754 // "CSWT"
	version    = 1
	headerLen  = 20 // magic, version, metaLen, payloadLen, crc — uint32 each
	blobSuffix = ".blob"
	tmpSuffix  = ".tmp"
)

// Stats counts store activity since Open.
type Stats struct {
	// Puts/Gets/Deletes are successful committed operations.
	Puts, Gets, Deletes int
	// Recovered counts blobs rebuilt into the index by Open from a
	// previous incarnation's directory.
	Recovered int
	// Scrubbed counts files Open discarded: uncommitted *.tmp leftovers
	// and blobs failing their integrity check.
	Scrubbed int
}

// Store is the file-backed spill tier. All methods are safe for concurrent
// use; operations serialize on one lock held across their file I/O, which
// is what bounds disk concurrency: one tier operation at a time, whoever
// issues it.
type Store struct {
	dir string
	cap int64 // bytes; 0 = unbounded
	inj *faultinject.Injector

	mu    sync.Mutex
	index map[string]int64 // key → committed payload bytes
	used  int64
	stats Stats
}

// Open creates (or reopens) a store rooted at dir with the given byte
// capacity (0 = unbounded). Reopening a directory from a previous
// incarnation recovers every committed blob into the index, deletes
// uncommitted *.tmp leftovers, and scrubs blobs that fail their integrity
// check — restart recovery is just Open. inj optionally injects a
// commit-point failure (faultinject.SiteTierCommit); nil injects nothing.
func Open(dir string, capacity int64, inj *faultinject.Injector) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("tier: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tier: %w", err)
	}
	s := &Store{
		dir:   dir,
		cap:   capacity,
		inj:   inj,
		index: make(map[string]int64),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tier: %w", err)
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			// An uncommitted write from a crashed demotion: the blob never
			// made the index, so its host-state owner still holds it.
			_ = os.Remove(filepath.Join(dir, name))
			s.stats.Scrubbed++
		case strings.HasSuffix(name, blobSuffix):
			key, kerr := url.PathUnescape(strings.TrimSuffix(name, blobSuffix))
			_, payload, rerr := readBlob(filepath.Join(dir, name), fresh)
			if kerr != nil || rerr != nil {
				_ = os.Remove(filepath.Join(dir, name))
				s.stats.Scrubbed++
				continue
			}
			s.index[key] = int64(len(payload))
			s.used += int64(len(payload))
			s.stats.Recovered++
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Capacity returns the store's byte capacity (0 = unbounded).
func (s *Store) Capacity() int64 { return s.cap }

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

// Contains reports whether a committed blob exists for key.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Stats returns a snapshot of store activity.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// path maps a key to its committed file path.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, url.PathEscape(key)+blobSuffix)
}

// Put commits blob under key with its JSON-serialisable metadata,
// replacing any previous blob. It fails with ErrFull when the store
// cannot hold the payload; any failure — including an injected
// SiteTierCommit fault at the commit point — leaves the store without the
// new blob (the previous one, if any, survives) and the index unchanged.
// The blob goes to the file from the caller's slice — header and metadata
// in one write, the blob in a second, the CRC folded across both — and the
// caller keeps ownership of it.
func (s *Store) Put(key string, blob []byte, meta any) error {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("tier: put %q: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.index[key] // 0 when absent
	if s.cap > 0 && s.used-prev+int64(len(blob)) > s.cap {
		return fmt.Errorf("%w: %q needs %d, %d of %d in use", ErrFull, key, len(blob), s.used, s.cap)
	}

	head := make([]byte, headerLen, headerLen+len(metaJSON))
	binary.LittleEndian.PutUint32(head[0:], magic)
	binary.LittleEndian.PutUint32(head[4:], version)
	binary.LittleEndian.PutUint32(head[8:], uint32(len(metaJSON)))
	binary.LittleEndian.PutUint32(head[12:], uint32(len(blob)))
	binary.LittleEndian.PutUint32(head[16:], crc32.Update(crc32.ChecksumIEEE(metaJSON), crc32.IEEETable, blob))
	head = append(head, metaJSON...)

	final := s.path(key)
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		if _, err = f.Write(head); err == nil {
			_, err = f.Write(blob)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	// The seam crash-consistency tests kill the store at: the blob is fully
	// written but not yet committed. Recovery (Open) deletes the *.tmp.
	if err == nil {
		err = s.inj.Fail(faultinject.SiteTierCommit)
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("tier: put %q: %w", key, err)
	}
	s.index[key] = int64(len(blob))
	s.used += int64(len(blob)) - prev
	s.stats.Puts++
	return nil
}

// Get returns a copy of the committed blob; see GetInto.
func (s *Store) Get(key string, metaOut any) ([]byte, error) {
	return s.GetInto(key, metaOut, fresh)
}

func fresh(n int) []byte { return make([]byte, n) }

// GetInto reads the committed blob into the buffer alloc returns for its
// size (any length, capacity at least n) and, when metaOut is non-nil,
// unmarshals the blob's metadata section into it. Integrity is verified
// end to end: a blob whose header or CRC does not check out returns
// ErrCorrupt, never torn bytes (and drops the buffer alloc handed out).
func (s *Store) GetInto(key string, metaOut any, alloc func(n int) []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	meta, payload, err := readBlob(s.path(key), alloc)
	if err == nil && metaOut != nil {
		err = json.Unmarshal(meta, metaOut)
	}
	if err != nil {
		return nil, fmt.Errorf("tier: get %q: %w", key, err)
	}
	s.stats.Gets++
	return payload, nil
}

// Delete removes key's blob. Deleting an absent key is a
// no-op returning false.
func (s *Store) Delete(key string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, ok := s.index[key]
	if !ok {
		return false, nil
	}
	if err := os.Remove(s.path(key)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return false, fmt.Errorf("tier: delete %q: %w", key, err)
	}
	delete(s.index, key)
	s.used -= size
	s.stats.Deletes++
	return true, nil
}

// readBlob reads and validates one blob file end to end: the header, the
// metadata section, then the payload straight into the buffer alloc returns
// for it, the CRC taken over both sections as read.
func readBlob(path string, alloc func(n int) []byte) (meta, payload []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	var head [headerLen]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: %d-byte file", ErrCorrupt, st.Size())
	}
	if m, v := binary.LittleEndian.Uint32(head[0:]), binary.LittleEndian.Uint32(head[4:]); m != magic || v != version {
		return nil, nil, fmt.Errorf("%w: magic %#x, version %d", ErrCorrupt, m, v)
	}
	metaLen := int64(binary.LittleEndian.Uint32(head[8:]))
	payloadLen := int64(binary.LittleEndian.Uint32(head[12:]))
	if st.Size() != headerLen+metaLen+payloadLen {
		return nil, nil, fmt.Errorf("%w: %d bytes, header promises %d",
			ErrCorrupt, st.Size(), headerLen+metaLen+payloadLen)
	}
	meta, payload = make([]byte, metaLen), alloc(int(payloadLen))[:payloadLen]
	for _, section := range [][]byte{meta, payload} {
		if _, err := io.ReadFull(f, section); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if crc32.Update(crc32.ChecksumIEEE(meta), crc32.IEEETable, payload) != binary.LittleEndian.Uint32(head[16:]) {
		return nil, nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return meta, payload, nil
}
