package sweep

import (
	"bytes"
	"fmt"
	"strings"
	"time"
)

// CellError attributes a cell failure to its index (and attempt, when the
// retry policy ran the cell more than once). Every error the engine
// returns or records — plain fn errors, converted panics, watchdog
// timeouts — is wrapped in a CellError, so callers can always recover the
// failing index with errors.As and reach the cause through Unwrap.
type CellError struct {
	Cell    int
	Attempt int // 1-based attempt count that produced Err
	Err     error
}

func (e *CellError) Error() string {
	if e.Attempt > 1 {
		return fmt.Sprintf("sweep: cell %d (attempt %d): %v", e.Cell, e.Attempt, e.Err)
	}
	return fmt.Sprintf("sweep: cell %d: %v", e.Cell, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// TimeoutError reports a cell abandoned by the per-cell watchdog (see
// Policy.CellTimeout). The cell goroutine may still be running — its
// context was canceled, but the engine stops waiting for it — so its
// result, if one ever arrives, is discarded.
type TimeoutError struct {
	Cell  int
	Limit time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("cell watchdog: no result within %v (goroutine abandoned)", e.Limit)
}

// Is makes errors.Is(err, context.DeadlineExceeded)-style checks
// unnecessary: a TimeoutError never matches context errors (the run was
// not canceled), so it only equals another TimeoutError for the same cell.
func (e *TimeoutError) Is(target error) bool {
	t, ok := target.(*TimeoutError)
	return ok && t.Cell == e.Cell
}

// PanicError reports a sweep cell that panicked. It preserves the cell
// index and the panicking goroutine's stack so a failure deep inside one
// simulation of a multi-hundred-cell sweep is attributable.
//
// Error returns a single line (panic value plus the panic site) so the
// error can flow into line-oriented sinks — JSONL events, the progress
// line, CSV hole comments — without dumping a multi-KB stack into them.
// The full stack stays available through Verbose and the Stack field.
type PanicError struct {
	Cell  int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	msg := fmt.Sprintf("panicked: %v", oneLine(fmt.Sprint(e.Value)))
	if site := e.panicSite(); site != "" {
		msg += " at " + site
	}
	return msg
}

// Verbose returns the error with the full panic stack attached, for
// contexts (stderr diagnostics, test failures) that want all of it.
func (e *PanicError) Verbose() string {
	return fmt.Sprintf("sweep: cell %d panicked: %v\n%s", e.Cell, e.Value, e.Stack)
}

// panicSite extracts the innermost interesting frame ("file.go:123") from
// the captured stack: the first file/line that is neither the runtime's
// panic machinery nor this package's recover plumbing.
func (e *PanicError) panicSite() string {
	for _, line := range bytes.Split(e.Stack, []byte("\n")) {
		// Frame location lines look like "\t/path/file.go:123 +0x1b".
		if !bytes.HasPrefix(line, []byte("\t")) {
			continue
		}
		l := strings.TrimSpace(string(line))
		if !strings.Contains(l, ".go:") {
			continue
		}
		// Skip the runtime's panic machinery and this package's recover
		// plumbing; the first frame left is where the panic happened.
		if strings.Contains(l, "runtime/panic.go") || strings.Contains(l, "runtime/debug/stack.go") ||
			strings.Contains(l, "internal/sweep/sweep.go") || strings.Contains(l, "internal/sweep/runner.go") {
			continue
		}
		if i := strings.IndexByte(l, ' '); i > 0 {
			l = l[:i]
		}
		// Keep only the last two path elements: enough to locate, short
		// enough for one line.
		parts := strings.Split(l, "/")
		if len(parts) > 2 {
			l = strings.Join(parts[len(parts)-2:], "/")
		}
		return l
	}
	return ""
}

// oneLine flattens and bounds a string for single-line error output.
func oneLine(s string) string {
	s = strings.ReplaceAll(s, "\n", " ")
	const max = 200
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}

// CellFailure is one hole in a skip-policy sweep: the cell that failed and
// the (CellError-wrapped) reason. Holes are reported, sorted by cell, by
// Map so the caller can render them explicitly instead of
// silently dropping rows.
type CellFailure struct {
	Cell int
	Err  error
}
