package report

import (
	"context"
	"strings"
	"testing"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/suite"
)

func profiledGrid(t *testing.T) *harness.Grid {
	t.Helper()
	opt := harness.DefaultOptions()
	opt.Samples = 5
	opt.MaxFunctionalOps = 0
	opt.Verify = false
	g, err := harness.RunGrid(context.Background(), suite.New(), harness.GridSpec{
		Benchmarks: []string{"srad", "crc", "nqueens"},
		Sizes:      []string{"tiny"},
		Devices:    []string{"i7-6700k", "gtx1080", "knl-7210"},
		Options:    opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAIWCTable(t *testing.T) {
	g := profiledGrid(t)
	var sb strings.Builder
	AIWCTable(&sb, g)
	out := sb.String()
	for _, want := range []string{"AIWC", "srad/srad2", "crc/crc32_pages", "Diverg", "most similar kernel pair"} {
		if !strings.Contains(out, want) {
			t.Errorf("AIWC table missing %q:\n%s", want, out)
		}
	}
	// crc must show as integer-dominated, srad as flop-heavy.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "crc/") && !strings.Contains(line, "0.00") {
			// crc has zero flop fraction; the first mix column is flop.
			fields := strings.Fields(line)
			if len(fields) > 5 && fields[5] != "0.00" {
				t.Errorf("crc flop fraction %s, want 0.00: %s", fields[5], line)
			}
		}
	}
}

func TestMeasurementDiagnosticsPopulated(t *testing.T) {
	g := profiledGrid(t)
	for _, m := range g.Measurements {
		d := m.Diagnostics
		if d.NonNormal {
			t.Errorf("%s/%s/%s: small-CV lognormal samples flagged non-normal (D=%f)",
				m.Benchmark, m.Size, m.Device.ID, d.KSStatistic)
		}
		if d.Autocorrelated {
			t.Errorf("%s/%s/%s: independent noise samples flagged autocorrelated (r1=%f)",
				m.Benchmark, m.Size, m.Device.ID, d.Lag1)
		}
	}
}
