package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden tables in testdata/ from this tree's output")

// goldenArgs is the pinned sweep: every experiment at a small budget, so
// the full set of paper tables runs in a couple of seconds.
var goldenArgs = []string{"-exp", "all", "-insts", "10000"}

const (
	goldenTable = "testdata/all-10000.golden"
	goldenCSV   = "testdata/all-10000.csv.golden"
)

// TestGoldenTables pins every number the experiments print. The simulator
// is deterministic, so any byte of drift is a semantic change: a
// performance change must leave this test passing untouched, and a
// deliberate model change regenerates the files with
//
//	go test ./cmd/rasbench -run TestGoldenTables -update
//
// The same bytes must come out serially, in parallel, from a cold run
// that fills a result store, and from a warm rerun served by that store.
func TestGoldenTables(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	serial := runStdout(t, append([]string{"-parallel", "1"}, goldenArgs...)...)
	csv := runStdout(t, append([]string{"-parallel", "2", "-format", "csv", "-store", store}, goldenArgs...)...)
	if *update {
		for name, out := range map[string][]byte{goldenTable: serial, goldenCSV: csv} {
			if err := os.WriteFile(name, out, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	wantTable := readGolden(t, goldenTable)
	checkGolden(t, "table -parallel 1", serial, wantTable)
	checkGolden(t, "csv -parallel 2 (cold store fill)", csv, readGolden(t, goldenCSV))
	checkGolden(t, "table -parallel 2",
		runStdout(t, append([]string{"-parallel", "2"}, goldenArgs...)...), wantTable)
	checkGolden(t, "table, warm store rerun",
		runStdout(t, append([]string{"-store", store}, goldenArgs...)...), wantTable)
}

func runStdout(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := rasbench(t, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("rasbench %v: %v\n%s", args, err, errOut.Bytes())
	}
	return out.Bytes()
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	return b
}

// checkGolden reports the first differing line rather than both blobs:
// the tables run to hundreds of lines.
func checkGolden(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			t.Errorf("%s: output differs from the golden at line %d:\n got: %q\nwant: %q", what, i+1, gl, wl)
			return
		}
	}
}
