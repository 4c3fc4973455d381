package resultstore

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// parseSegmentOracle is the reference segment parser: json.Unmarshal of
// every line into a record, then the key, payload and CRC checks.
// FuzzSegment holds parseSegment, whose canonical lines skip the second
// decoding pass, to the same records and the same consumed prefix on
// every input.
func parseSegmentOracle(data []byte) ([]record, int) {
	var recs []record
	consumed := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			consumed += nl + 1
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			break
		}
		if rec.Key == "" || rec.Payload == nil || crc32.ChecksumIEEE(rec.Payload) != rec.CRC {
			break
		}
		recs = append(recs, rec)
		consumed += nl + 1
	}
	return recs, consumed
}

// FuzzSegment feeds arbitrary bytes through the segment parser and then
// through a full Open/Put/Get cycle: whatever a crash, a bit flip, or a
// hostile file leaves in a segment, recovery must (a) never panic, (b)
// return exactly the records and consumed prefix of the json.Unmarshal
// oracle, (c) report a consumed prefix that is actually parsable, and
// (d) leave the store appendable — a Put after recovery must survive the
// next Open. That is the store's recovery contract (see the package doc)
// under arbitrary input. The committed seed corpus covers the interesting
// shapes (valid records in Put's own layout and in others, torn tail, CRC
// mismatch, non-record JSON, empty lines, escaped or odd provenance).
func FuzzSegment(f *testing.F) {
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSegment", "seed-*"))
	if err != nil {
		f.Fatal(err)
	}
	if len(corpus) == 0 {
		f.Fatal("seed corpus missing")
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, consumed := parseSegment(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d outside [0, %d]", consumed, len(data))
		}
		// The single-pass parser must agree with the json.Unmarshal
		// oracle on every record and on where the valid prefix ends.
		want, wantConsumed := parseSegmentOracle(data)
		if consumed != wantConsumed {
			t.Fatalf("consumed %d bytes, oracle %d", consumed, wantConsumed)
		}
		if len(recs) != len(want) {
			t.Fatalf("parsed %d records, oracle %d", len(recs), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(recs[i], want[i]) {
				t.Fatalf("record %d = %+v (prov %+v), oracle %+v (prov %+v)",
					i, recs[i], recs[i].Prov, want[i], want[i].Prov)
			}
		}
		// The valid prefix must re-parse to the same records: recovery is
		// idempotent.
		recs2, consumed2 := parseSegment(data[:consumed])
		if consumed2 != consumed || len(recs2) != len(recs) {
			t.Fatalf("prefix re-parse diverged: %d/%d records, %d/%d bytes",
				len(recs2), len(recs), consumed2, consumed)
		}

		// A store opened over these bytes must recover and stay usable.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open over fuzzed segment: %v", err)
		}
		defer s.Close()
		key := CellKey("fuzz", "t3", 0)
		payload := []byte(`{"v":1}`)
		if err := s.Put(key, payload, Provenance{}); err != nil {
			t.Fatalf("Put after recovery: %v", err)
		}
		s.Close()
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("re-Open after recovery+append: %v", err)
		}
		defer s2.Close()
		got, ok := s2.Get(key)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("record appended after recovery lost: %q, %v", got, ok)
		}
	})
}
