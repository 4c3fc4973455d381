// Package resultstore is the content-addressed cell-result cache behind
// warm sweep reruns: a sweep cell whose result-determining parameters hash
// to a key already in the store is answered from disk instead of
// simulated. Keys are sha256 content hashes (see Scope and CellKey), so
// two runs — or two users — asking for the same (configuration, budget,
// workload set, experiment, cell) tuple share one simulation.
//
// On disk, a store directory holds append-only segment files
// (seg-000001.log, seg-000002.log, …) of JSONL records, each record
// carrying its payload's CRC32 and a provenance stamp (tool, time, scope).
// Recovery contract: every record is one line, written and fsynced before
// Put returns, so a process killed at any instant — even by SIGKILL —
// leaves at worst one torn trailing line. Open keeps each segment's valid
// prefix (up to the first line that is truncated, unparsable, not a
// record, or fails its CRC) and truncates the active segment's torn tail
// so later appends stay parsable. That is what makes rerunning an
// interrupted sweep against the same store a resume: every cell that
// completed before the kill is a hit. Duplicate keys keep the latest
// record, so a corrupt or schema-drifted entry is healed by simply storing
// the cell again.
//
// Segments rotate at a size threshold and are immutable once rotated.
// Eviction is segment-granular: Trim drops whole oldest segments until
// the store fits a byte budget (the active segment is always kept), which
// is safe because every record is self-contained — a dropped key is
// re-simulated and re-appended on next use.
//
// Do layers in-process singleflight on top: N concurrent callers of the
// same missing key collapse into one computation, with the other N-1
// sharing the leader's result. Waiters honor their own context and never
// inherit a leader's failure (they retry as the new leader instead) —
// see Do. That is what keeps a server re-running hundreds of
// near-identical campaign cells from simulating any of them twice,
// without letting one canceled or crashed cell strand the rest.
package resultstore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed reports an append against a closed store — the shutdown
// race a draining server cares about (a Put lost to ErrClosed means a
// campaign goroutine outlived the drain window).
var ErrClosed = errors.New("resultstore: store closed")

// IOError marks a storage-layer failure — a failed write, fsync, or
// segment rotation — as opposed to a compute, validation, or lifecycle
// error. The distinction is what lets a caller degrade instead of fail:
// a simulation whose result could not be persisted is still a valid
// result, so the experiments layer returns it uncached and the server
// flips into compute-without-cache mode rather than failing campaigns
// on a full disk.
type IOError struct {
	Op  string // "write", "fsync", "rotate", "inject"
	Err error
}

func (e *IOError) Error() string { return fmt.Sprintf("resultstore: %s: %v", e.Op, e.Err) }
func (e *IOError) Unwrap() error { return e.Err }

// IsIO reports whether err is (or wraps) a storage I/O failure.
func IsIO(err error) bool {
	var io *IOError
	return errors.As(err, &io)
}

// DefaultMaxSegmentBytes is the rotation threshold for the active segment.
const DefaultMaxSegmentBytes = 4 << 20

const (
	segPrefix = "seg-"
	segSuffix = ".log"
)

// Provenance stamps where a stored result came from. It rides on the
// record (and back out of Prov), never inside the payload, so payload bytes
// stay a pure function of the key.
type Provenance struct {
	// Tool is the producing command ("rasbench", "rasserve").
	Tool string `json:"tool,omitempty"`
	// Time is the RFC3339 instant the record was appended.
	Time string `json:"time,omitempty"`
	// Scope is the content hash of the cell universe (see Scope).
	Scope string `json:"scope,omitempty"`
	// Exp and Cell locate the result inside its experiment sweep.
	Exp  string `json:"exp,omitempty"`
	Cell int    `json:"cell,omitempty"`
}

// record is one JSONL segment line.
type record struct {
	Key     string          `json:"key"`
	CRC     uint32          `json:"crc"`
	Prov    *Provenance     `json:"prov,omitempty"`
	Payload json.RawMessage `json:"payload"`
}

// entry is one key's in-memory index slot.
type entry struct {
	payload []byte
	prov    Provenance
}

// Stats is a snapshot of the store's operation counters.
type Stats struct {
	// Hits and Misses count Get lookups by outcome; Puts counts appended
	// records. Shared counts Do callers that joined another caller's
	// in-flight computation instead of running their own.
	Hits   uint64
	Misses uint64
	Puts   uint64
	Shared uint64
	// Recovered counts records loaded at Open; DroppedBytes is how much
	// trailing corruption Open discarded across segments.
	Recovered    uint64
	DroppedBytes uint64
}

// Observer receives operation callbacks for telemetry. All fields are
// optional; callbacks fire outside the store lock and must be safe for
// concurrent use. Observation is strictly passive — it cannot affect what
// the store returns.
type Observer struct {
	// OnGet fires per lookup with the outcome and wall-clock seconds.
	OnGet func(hit bool, seconds float64)
	// OnPut fires per appended record with wall-clock seconds (including
	// the fsync).
	OnPut func(seconds float64)
	// OnShared fires when a Do caller shares an in-flight computation.
	OnShared func()
}

// flight is one in-progress Do computation other callers can join.
type flight struct {
	done    chan struct{}
	payload []byte
	err     error
}

// flightShardCount sizes the singleflight shard table. Keys are sha256
// hex (uniform), so a small power of two spreads concurrent sweep workers
// across independent locks; 32 shards keep 16 workers essentially
// collision-free without meaningful memory cost.
const flightShardCount = 32

// flightShard is one slice of the in-flight computation table, with its
// own lock so concurrent Do callers on different keys never serialize on
// a store-wide mutex. ended counts the flights unregistered so far (see
// Do). The pad keeps adjacent shards' mutexes off one cache line.
type flightShard struct {
	mu    sync.Mutex
	m     map[string]*flight
	ended atomic.Uint64
	_     [88]byte
}

// Store is an open result store. Safe for concurrent use.
type Store struct {
	dir     string
	tool    string
	maxSeg  int64
	obs     Observer
	hits    atomic.Uint64
	misses  atomic.Uint64
	puts    atomic.Uint64
	shared  atomic.Uint64
	recov   uint64
	dropped uint64

	mu       sync.Mutex
	f        *os.File // active segment
	seg      int      // active segment number
	size     int64    // active segment bytes
	index    map[string]entry
	closed   bool
	putFault func() error // deterministic I/O fault seam (see SetPutFault)

	flights [flightShardCount]flightShard
}

// flightShardFor maps key to its singleflight shard (FNV-1a; keys are
// already uniform content hashes, but FNV keeps arbitrary test keys
// spreading too).
func (s *Store) flightShardFor(key string) *flightShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.flights[h%flightShardCount]
}

// Open opens (creating if needed) the store rooted at dir, loading every
// segment's valid prefix into the in-memory index. A torn tail on the
// active segment is truncated away so subsequent appends remain parsable;
// torn tails on rotated segments just drop the affected records (they
// re-fill on next use).
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{
		dir:    dir,
		tool:   "resultstore",
		maxSeg: DefaultMaxSegmentBytes,
		index:  map[string]entry{},
	}
	for i := range s.flights {
		s.flights[i].m = map[string]*flight{}
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, seg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, segName(seg)))
		if err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
		recs, consumed := parseSegment(data)
		for _, r := range recs {
			s.index[r.Key] = entry{payload: r.Payload, prov: provOf(r)}
		}
		s.recov += uint64(len(recs))
		s.dropped += uint64(len(data) - consumed)
		if i == len(segs)-1 && consumed < len(data) {
			// Active segment with a torn tail: truncate to the valid
			// prefix so the next append starts on a clean line.
			if err := os.Truncate(filepath.Join(dir, segName(seg)), int64(consumed)); err != nil {
				return nil, fmt.Errorf("resultstore: truncate torn tail: %w", err)
			}
		}
	}
	active := 1
	if len(segs) > 0 {
		active = segs[len(segs)-1]
	}
	if err := s.openSegment(active); err != nil {
		return nil, err
	}
	return s, nil
}

// SetTool names the producing tool stamped into Put provenance.
func (s *Store) SetTool(tool string) { s.tool = tool }

// SetObserver attaches telemetry callbacks (see Observer).
func (s *Store) SetObserver(obs Observer) { s.obs = obs }

// SetMaxSegmentBytes overrides the rotation threshold (testing knob).
func (s *Store) SetMaxSegmentBytes(n int64) {
	if n > 0 {
		s.maxSeg = n
	}
}

// SetPutFault installs a deterministic I/O fault: every subsequent Put
// consults f before touching the disk and fails with an *IOError when f
// returns one. Nil clears the fault. This is the store's analogue of
// internal/faultinject — disk-full and torn-write failures are hard to
// provoke on a healthy filesystem, and the degraded-mode contract
// (campaigns complete uncached instead of failing) needs them on demand
// in tests and smoke jobs.
func (s *Store) SetPutFault(f func() error) {
	s.mu.Lock()
	s.putFault = f
	s.mu.Unlock()
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of distinct keys resident in the index.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats snapshots the operation counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		Shared:       s.shared.Load(),
		Recovered:    s.recov,
		DroppedBytes: s.dropped,
	}
}

// Get returns the payload stored under key. The payload may share memory
// with the store's index: callers must not modify it.
func (s *Store) Get(key string) ([]byte, bool) {
	start := time.Now()
	s.mu.Lock()
	e, ok := s.index[key]
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	if s.obs.OnGet != nil {
		s.obs.OnGet(ok, time.Since(start).Seconds())
	}
	return e.payload, ok
}

// Prov returns the provenance stamp stored under key without counting a
// lookup — for observers (rasserve's cell_cached events) that annotate a
// hit the sweep already counted. It is the only reader of provenance.
func (s *Store) Prov(key string) (Provenance, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	return e.prov, ok
}

// Put appends one record under key and fsyncs it. The store fills the
// provenance stamp's Tool and Time; the caller supplies the rest. A
// re-Put of an existing key appends a fresh record and the index keeps
// the newest — that is also the self-healing path for schema drift.
func (s *Store) Put(key string, payload []byte, prov Provenance) error {
	start := time.Now()
	if key == "" {
		return fmt.Errorf("resultstore: empty key")
	}
	if prov.Tool == "" {
		prov.Tool = s.tool
	}
	if prov.Time == "" {
		prov.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	rec := record{Key: key, CRC: crc32.ChecksumIEEE(payload), Prov: &prov, Payload: payload}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	line = append(line, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.putFault != nil {
		if ferr := s.putFault(); ferr != nil {
			return &IOError{Op: "inject", Err: ferr}
		}
	}
	if s.size > 0 && s.size+int64(len(line)) > s.maxSeg {
		if err := s.openSegment(s.seg + 1); err != nil {
			return &IOError{Op: "rotate", Err: err}
		}
	}
	if _, err := s.f.Write(line); err != nil {
		return &IOError{Op: "write", Err: err}
	}
	if err := s.f.Sync(); err != nil {
		return &IOError{Op: "fsync", Err: err}
	}
	s.size += int64(len(line))
	// The index owns its payload bytes: callers may reuse theirs.
	cp := make([]byte, len(payload))
	copy(cp, payload)
	s.index[key] = entry{payload: cp, prov: prov}
	s.puts.Add(1)
	if s.obs.OnPut != nil {
		s.obs.OnPut(time.Since(start).Seconds())
	}
	return nil
}

// Outcome classifies how Do resolved a key.
type Outcome uint8

const (
	// Computed: this caller led the computation and stored the result.
	Computed Outcome = iota
	// Hit: the key was already resident.
	Hit
	// SharedFlight: another caller was already computing the key; this
	// caller waited and shares that result.
	SharedFlight
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case SharedFlight:
		return "shared"
	default:
		return "computed"
	}
}

// Do resolves key: from the index if resident, from another caller's
// in-flight computation if one is running, else by invoking compute and
// storing its result. Exactly one compute runs per key at a time — N
// concurrent callers of the same missing key produce one computation.
// A failed compute stores nothing.
//
// ctx bounds only the waiting, never the computing: a caller that joins
// another caller's flight gives up with ctx.Err() when its own context
// expires, so a hung or abandoned leader cannot strand it (compute is
// expected to honor its own context). A leader failure — error or panic
// — is not adopted by waiters either: each re-enters and the first
// becomes the new leader with its own attempt, so one caller's
// cancellation (a sweep cell watchdog firing, say) cannot poison every
// concurrent caller of the key. The flight is unregistered and waiters
// woken even when compute panics; the panic then resumes unwinding
// toward the leader's own recovery machinery.
//
// Do assumes the caller already observed (and counted) a Get miss, so it
// does not count another; a key that became resident in the meantime
// counts as a hit.
//
// Flights live in a sharded table (key-hashed, per-shard locks) so
// concurrent sweep workers resolving different keys never serialize on
// one singleflight mutex. The index check and the flight check are
// therefore not atomic: a leader can finish in the gap. A leader stores
// its result before it unregisters, and every unregistration bumps its
// shard's ended count, so a caller that finds no flight but a changed
// count looks at the index again instead of computing the key a second
// time. The check costs no extra lock, which matters because the index
// lock is held through a Put's fsync.
func (s *Store) Do(ctx context.Context, key string, compute func() ([]byte, Provenance, error)) ([]byte, Outcome, error) {
	sh := s.flightShardFor(key)
	for {
		ended := sh.ended.Load()
		start := time.Now()
		s.mu.Lock()
		e, ok := s.index[key]
		s.mu.Unlock()
		if ok {
			s.hits.Add(1)
			if s.obs.OnGet != nil {
				s.obs.OnGet(true, time.Since(start).Seconds())
			}
			return e.payload, Hit, nil
		}
		sh.mu.Lock()
		if f, ok := sh.m[key]; ok {
			sh.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, SharedFlight, ctx.Err()
			}
			if f.err != nil {
				// The leader failed — possibly just its own cancellation.
				// Retry (becoming the new leader) rather than adopt it.
				if err := ctx.Err(); err != nil {
					return nil, SharedFlight, err
				}
				continue
			}
			s.shared.Add(1)
			if s.obs.OnShared != nil {
				s.obs.OnShared()
			}
			return f.payload, SharedFlight, nil
		}
		if sh.ended.Load() != ended {
			// A flight in this shard ended since the index check; if it
			// was this key's, the result is resident now.
			sh.mu.Unlock()
			continue
		}
		f := &flight{done: make(chan struct{})}
		sh.m[key] = f
		sh.mu.Unlock()
		s.lead(key, f, compute)
		return f.payload, Computed, f.err
	}
}

// lead runs compute as flight f's leader and persists a successful
// result. The deferred cleanup runs on every exit path — including a
// compute panic, an anticipated failure mode since the sweep engine's
// panic recovery sits outside Do — so the flight is always unregistered
// and waiters always wake instead of blocking on f.done forever.
func (s *Store) lead(key string, f *flight, compute func() ([]byte, Provenance, error)) {
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("resultstore: compute for %s panicked: %v", key, r)
			s.endFlight(key, f)
			panic(r)
		}
		s.endFlight(key, f)
	}()
	var prov Provenance
	f.payload, prov, f.err = compute()
	if f.err == nil {
		if err := s.Put(key, f.payload, prov); err != nil {
			f.err = err
		}
	}
}

// endFlight unregisters the flight and wakes its waiters. The close
// happens after the delete so a caller can never observe a closed flight
// still registered.
func (s *Store) endFlight(key string, f *flight) {
	sh := s.flightShardFor(key)
	sh.mu.Lock()
	delete(sh.m, key)
	sh.ended.Add(1)
	sh.mu.Unlock()
	close(f.done)
}

// Trim evicts oldest rotated segments until the store's total size fits
// maxBytes, rebuilding the index from the survivors. The active segment is
// never removed. Returns the number of segments deleted.
func (s *Store) Trim(maxBytes int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, err := listSegments(s.dir)
	if err != nil {
		return 0, err
	}
	sizes := make([]int64, len(segs))
	var total int64
	for i, seg := range segs {
		fi, err := os.Stat(filepath.Join(s.dir, segName(seg)))
		if err != nil {
			return 0, fmt.Errorf("resultstore: %w", err)
		}
		sizes[i] = fi.Size()
		total += fi.Size()
	}
	removed := 0
	for i := 0; i < len(segs)-1 && total > maxBytes; i++ {
		if err := os.Remove(filepath.Join(s.dir, segName(segs[i]))); err != nil {
			return removed, fmt.Errorf("resultstore: %w", err)
		}
		total -= sizes[i]
		removed++
	}
	if removed == 0 {
		return 0, nil
	}
	// Rebuild the index from the surviving segments: keys whose only
	// record lived in an evicted segment disappear (and re-fill on use).
	s.index = map[string]entry{}
	for _, seg := range segs[removed:] {
		data, err := os.ReadFile(filepath.Join(s.dir, segName(seg)))
		if err != nil {
			return removed, fmt.Errorf("resultstore: %w", err)
		}
		recs, _ := parseSegment(data)
		for _, r := range recs {
			s.index[r.Key] = entry{payload: r.Payload, prov: provOf(r)}
		}
	}
	return removed, nil
}

// Close closes the active segment. Further Puts fail; Gets keep serving
// the in-memory index.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// openSegment makes seg the active segment, opened for append. Caller
// holds mu (or is Open, pre-publication).
func (s *Store) openSegment(seg int) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("resultstore: %w", err)
	}
	if s.f != nil {
		s.f.Close()
	}
	s.f, s.seg, s.size = f, seg, fi.Size()
	return nil
}

func segName(seg int) string { return fmt.Sprintf("%s%06d%s", segPrefix, seg, segSuffix) }

// listSegments returns the store's segment numbers in ascending order.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	var segs []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
		if err != nil || n <= 0 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// parseSegment parses one segment's bytes, tolerating a truncated or
// corrupt tail: parsing stops at the first malformed line — no trailing
// newline, invalid JSON, a non-record object, or a CRC mismatch — and the
// valid prefix is kept. The second result is that prefix's length in
// bytes — the recovery contract described in the package doc.
//
// Each line is validated once with json.Valid. A line in the exact layout
// Put writes is then picked apart by parseCanonical without a second
// decoding pass; any other valid line goes through json.Unmarshal. Either
// way the record must carry a key and a payload whose CRC matches.
// A canonical line's payload aliases data rather than copying it, so the
// index pins each segment's buffer while any of its records is resident.
func parseSegment(data []byte) ([]record, int) {
	var recs []record
	consumed := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // a crash truncated this line
		}
		line := data[:nl:nl]
		data = data[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			consumed += nl + 1
			continue
		}
		if !json.Valid(line) {
			break
		}
		rec, ok := parseCanonical(line)
		if !ok {
			rec = record{}
			if err := json.Unmarshal(line, &rec); err != nil {
				break
			}
		}
		if rec.Key == "" || rec.Payload == nil || crc32.ChecksumIEEE(rec.Payload) != rec.CRC {
			break
		}
		recs = append(recs, rec)
		consumed += nl + 1
	}
	return recs, consumed
}

// parseCanonical extracts a record from a line json.Valid accepted, when
// the line has the exact layout json.Marshal(record) produces:
//
//	{"key":"K","crc":N,"prov":{...},"payload":{...}}
//
// with "prov" optional, the key and every provenance string plain
// printable ASCII (no escapes), and the payload an object. It reports
// false for anything else, and the caller falls back to json.Unmarshal.
// On a line it accepts, it returns exactly what json.Unmarshal would,
// with the payload sliced from line instead of copied.
func parseCanonical(line []byte) (record, bool) {
	b, ok := bytes.CutPrefix(line, []byte(`{"key":`))
	if !ok {
		return record{}, false
	}
	key, b, ok := plainString(b)
	if !ok {
		return record{}, false
	}
	// json.Unmarshal refuses a signed crc, "-0" included.
	if b, ok = bytes.CutPrefix(b, []byte(`,"crc":`)); !ok || len(b) == 0 || b[0] == '-' {
		return record{}, false
	}
	crc, b, ok := plainInt(b)
	if !ok || crc > math.MaxUint32 {
		return record{}, false
	}
	var prov *Provenance
	if rest, ok := bytes.CutPrefix(b, []byte(`,"prov":`)); ok {
		var pv Provenance
		if pv, b, ok = parseProv(rest); !ok {
			return record{}, false
		}
		prov = &pv
	}
	if b, ok = bytes.CutPrefix(b, []byte(`,"payload":`)); !ok {
		return record{}, false
	}
	end := objectEnd(b) + 1
	if end == 0 || len(b) != end+1 || b[end] != '}' {
		return record{}, false
	}
	return record{Key: string(key), CRC: uint32(crc), Prov: prov, Payload: b[:end:end]}, true
}

// parseProv parses the provenance object at the start of b in the layout
// json.Marshal(Provenance) produces — the non-empty fields in declaration
// order — and returns the bytes after it.
func parseProv(b []byte) (Provenance, []byte, bool) {
	var pv Provenance
	b, ok := bytes.CutPrefix(b, []byte("{"))
	if !ok {
		return pv, nil, false
	}
	sep := ""
	member := func(name string) bool {
		rest, ok := bytes.CutPrefix(b, []byte(sep+`"`+name+`":`))
		if ok {
			b, sep = rest, ","
		}
		return ok
	}
	for _, f := range [...]struct {
		name string
		dst  *string
	}{{"tool", &pv.Tool}, {"time", &pv.Time}, {"scope", &pv.Scope}, {"exp", &pv.Exp}} {
		if !member(f.name) {
			continue
		}
		var v []byte
		if v, b, ok = plainString(b); !ok {
			return pv, nil, false
		}
		*f.dst = string(v)
	}
	if member("cell") {
		var cell int64
		if cell, b, ok = plainInt(b); !ok || int64(int(cell)) != cell {
			return pv, nil, false
		}
		pv.Cell = int(cell)
	}
	b, ok = bytes.CutPrefix(b, []byte("}"))
	return pv, b, ok
}

// plainString returns the contents of the JSON string at the start of b
// and the bytes after it, when the contents are printable ASCII without
// escapes — exactly the strings whose decoded value is their raw bytes.
func plainString(b []byte) ([]byte, []byte, bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, nil, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[1:i], b[i+1:], true
		case c < 0x20 || c == '\\' || c >= 0x7f:
			return nil, nil, false
		}
	}
	return nil, nil, false
}

// plainInt parses the JSON integer at the start of b — an optional minus
// sign and at most 18 digits, so it cannot overflow — and returns the
// bytes after it. A fraction or exponent leaves the next byte something a
// canonical line never has there, so the caller's layout check rejects
// it.
func plainInt(b []byte) (int64, []byte, bool) {
	neg := len(b) > 0 && b[0] == '-'
	i := 0
	if neg {
		i = 1
	}
	var v int64
	start := i
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if i == start || i-start > 18 {
		return 0, nil, false
	}
	if neg {
		v = -v
	}
	return v, b[i:], true
}

// objectEnd returns the index of the brace that closes the JSON object at
// the start of b, or -1 when b does not start with one. b must lie inside
// a json.Valid document, which is what lets it skip strings and count
// brackets without checking anything else.
func objectEnd(b []byte) int {
	if len(b) == 0 || b[0] != '{' {
		return -1
	}
	depth := 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i
			}
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		}
	}
	return -1
}

func provOf(r record) Provenance {
	if r.Prov == nil {
		return Provenance{}
	}
	return *r.Prov
}

// Scope derives the content hash identifying a cell universe: the
// result-determining run parameters shared by every cell — the resolved
// machine configuration, instruction budget, warmup, and workload set.
// Deliberately excluded: the experiment selection (so `-exp t3` and
// `-exp all` runs share cells — the experiment id is part of CellKey
// instead) and the observational/A-B knobs (parallelism, telemetry,
// -no-predecode and friends), which are pinned byte-identical elsewhere.
func Scope(config string, instBudget, warmup uint64, workloads []string) string {
	b := make([]byte, 0, 64+len(config))
	b = append(append(b, "config:"...), config...)
	b = strconv.AppendUint(append(b, "\ninsts:"...), instBudget, 10)
	b = strconv.AppendUint(append(b, "\nwarmup:"...), warmup, 10)
	b = append(b, "\nworkloads:"...)
	for i, w := range workloads {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, w...)
	}
	return hashHex(append(b, '\n'))
}

// CellKey is the content address of one sweep cell: the scope hash plus
// the experiment id and the cell's index within that experiment's
// deterministic cell enumeration.
func CellKey(scope, exp string, cell int) string {
	b := make([]byte, 0, 96)
	b = append(append(append(b, scope...), 0), exp...)
	b = strconv.AppendInt(append(b, 0), int64(cell), 10)
	return hashHex(b)
}

// hashHex is the lowercase hex sha256 of b.
func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
