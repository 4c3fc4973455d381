package pipeline

import (
	"bytes"
	"strings"
	"testing"

	"retstack/internal/config"
	"retstack/internal/core"
	"retstack/internal/program"
)

// TestInvariantsEveryCycle steps representative configurations cycle by
// cycle, auditing the bookkeeping after each one.
func TestInvariantsEveryCycle(t *testing.T) {
	cases := []struct {
		name string
		cfg  config.Config
		src  string
		smt  string // second thread's program (SMT cases only)
	}{
		{"single-path", config.Baseline().WithPolicy(core.RepairTOSPointerAndContents), corruptorProgram, ""},
		{"no-repair", config.Baseline(), corruptorProgram, ""},
		{"tight-shadow", func() config.Config {
			c := config.Baseline().WithPolicy(core.RepairFullStack)
			c.ShadowSlots = 2
			return c
		}(), corruptorProgram, ""},
		{"2-path", mpConfig(2, config.MPPerPath), corruptorProgram, ""},
		{"4-path-unified", mpConfig(4, config.MPUnified), fibProgram, ""},
		{"8-path", mpConfig(8, config.MPUnifiedRepair), corruptorProgram, ""},
		{"smt-2", smtConfig(2, false), fibProgram, corruptorProgram},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ims := []*program.Image{mustAssemble(t, c.src)}
			if c.smt != "" {
				ims = append(ims, mustAssemble(t, c.smt))
			}
			s, err := NewSMT(c.cfg, ims)
			if err != nil {
				t.Fatal(err)
			}
			for cyc := 0; cyc < 30_000 && !s.Done(); cyc++ {
				if err := s.StepForTest(); err != nil {
					t.Fatal(err)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("cycle %d: %v", cyc, err)
				}
			}
		})
	}
}

func TestTracerCapturesPipelineFlow(t *testing.T) {
	im := mustAssemble(t, fibProgram)
	s, err := New(config.Baseline().WithPolicy(core.RepairTOSPointerAndContents), im)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := &TextTracer{W: &buf, MaxEvents: 500}
	s.SetTracer(tr)
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fetch", "dispatch", "complete", "commit"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q events:\n%s", want, out[:min(len(out), 400)])
		}
	}
	if tr.Count() == 0 || tr.Count() > 500 {
		t.Errorf("tracer count %d out of bounds", tr.Count())
	}
	// The cap must hold even if we keep running.
	s.SetTracer(tr)
	_ = s.Run(400)
	if tr.Count() > 500 {
		t.Errorf("MaxEvents not enforced: %d", tr.Count())
	}
}

func TestTracerSeesRecovery(t *testing.T) {
	im := mustAssemble(t, corruptorProgram)
	s, err := New(config.Baseline().WithPolicy(core.RepairTOSPointerAndContents), im)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.SetTracer(&TextTracer{W: &buf, MaxEvents: 100_000})
	if err := s.Run(5_000); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "recover") || !strings.Contains(out, "squash") {
		t.Error("corruptor run should trace recoveries and squashes")
	}
}

func TestTraceKindStrings(t *testing.T) {
	for k := TraceFetch; k <= TraceForkResolve; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if TraceKind(99).String() == "" {
		t.Error("unknown kind should format")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
