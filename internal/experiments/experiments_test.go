package experiments

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// quick runs every experiment in smoke-test mode and returns its output.
func runQuick(t *testing.T, id string) string {
	t.Helper()
	var b strings.Builder
	if err := Run(id, &b, Mode{Quick: true}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return b.String()
}

func TestFig1Output(t *testing.T) {
	out := runQuick(t, "fig1")
	if !strings.Contains(out, "AR slice convex: true") {
		t.Fatalf("AR convexity claim not reproduced:\n%s", tail(out))
	}
	if !strings.Contains(out, "PP slice convex: false") {
		t.Fatalf("PP non-convexity claim not reproduced:\n%s", tail(out))
	}
}

func TestFig2Output(t *testing.T) {
	out := runQuick(t, "fig2")
	lines := dataLines(out)
	if len(lines) < 5 {
		t.Fatalf("too few rows:\n%s", out)
	}
	// AR optimal distance must shrink as A_ij grows (the Fig. 2b pathology).
	first := fields(lines[0])
	last := fields(lines[len(lines)-1])
	if !(first[1] > last[1]) {
		t.Fatalf("AR distance should shrink with A_ij: first %g last %g", first[1], last[1])
	}
	// Weak connections push AR/PP circles far beyond tangency (> 1).
	if first[1] < 1.2 || first[2] < 1.2 {
		t.Fatalf("weak-A AR/PP optima should exceed tangency: %v", first)
	}
	// Our distance ratio stays at the constraint (1.0) for every weight.
	for _, l := range lines {
		f := fields(l)
		if f[3] < 0.95 || f[3] > 1.2 {
			t.Fatalf("SDP distance ratio drifted: %v", f)
		}
	}
}

func TestFig3Output(t *testing.T) {
	out := runQuick(t, "fig3")
	lines := dataLines(out)
	// k=1 rows must give the basic bound 2·r = 2·√(s/4) = 2 for s=4.
	found := false
	for _, l := range lines {
		f := fields(l)
		if f[0] == 1 {
			found = true
			if f[3] < 1.99 || f[3] > 2.01 {
				t.Fatalf("k=1 bound %g, want 2", f[3])
			}
		}
	}
	if !found {
		t.Fatal("no k=1 rows")
	}
}

func TestTable1Output(t *testing.T) {
	out := runQuick(t, "table1")
	for _, want := range []string{"collapsed=true", "non-convex", "controllable"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig4Output(t *testing.T) {
	out := runQuick(t, "fig4")
	lines := dataLines(out)
	// quick mode: 1 benchmark × 4 variants × 2 alphas.
	if len(lines) != 8 {
		t.Fatalf("expected 8 rows, got %d:\n%s", len(lines), out)
	}
	feasibleRows := 0
	for _, l := range lines {
		if strings.HasSuffix(l, "true") {
			feasibleRows++
		}
	}
	if feasibleRows == 0 {
		t.Fatal("every Fig.4 cell failed legalization")
	}
}

// TestFig5aOutput pins the quick-mode Fig. 5(a) CSV byte for byte: the
// series is read back from the "core" trace events, whose floats are the
// solver's own, so any change in the digest is a change in the solve.
func TestFig5aOutput(t *testing.T) {
	out := runQuick(t, "fig5a")
	lines := dataLines(out)
	if len(lines) != 8 { // n10 × 2 alphas × 4 iterations
		t.Fatalf("expected 8 convergence rows:\n%s", out)
	}
	const want = "edfe559922cff70a45c6b86c5f46da79a1681af90d7b9f2f746933c9d1ecb3bc"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != want {
		t.Fatalf("fig5a CSV sha256 %s, want %s:\n%s", got, want, out)
	}
}

func TestFig5bOutput(t *testing.T) {
	out := runQuick(t, "fig5b")
	if !strings.Contains(out, "fitted runtime exponent") {
		t.Fatalf("missing fit:\n%s", out)
	}
	lines := dataLines(out)
	// Runtime must grow with n.
	first := fields(lines[0])
	last := fields(lines[len(lines)-1])
	if last[1] <= first[1] {
		t.Fatalf("runtime did not grow: %v → %v", first, last)
	}
}

func TestTable2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("table2 takes ~20s even in quick mode")
	}
	out := runQuick(t, "table2")
	if !strings.Contains(out, "average delta") {
		t.Fatalf("missing summary:\n%s", out)
	}
	if len(dataLines(out)) != 2 { // n10 at both aspects
		t.Fatalf("expected 2 rows:\n%s", out)
	}
}

func TestTable3Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("table3 takes ~30s even in quick mode")
	}
	out := runQuick(t, "table3")
	if !strings.Contains(out, "average delta") {
		t.Fatalf("missing summary:\n%s", out)
	}
	if len(dataLines(out)) != 2 { // ami33 at both aspects
		t.Fatalf("expected 2 rows:\n%s", out)
	}
}

func TestRunUnknownID(t *testing.T) {
	var b strings.Builder
	if err := Run("nope", &b, Mode{}); err == nil {
		t.Fatal("expected unknown-id error")
	}
}

func TestIDsSortedComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatal("IDs incomplete")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatal("IDs not sorted")
		}
	}
}

func TestFitSlope(t *testing.T) {
	// y = 3x + 1.
	got := fitSlope([]float64{0, 1, 2, 3}, []float64{1, 4, 7, 10})
	if got < 2.999 || got > 3.001 {
		t.Fatalf("slope = %g, want 3", got)
	}
	if fitSlope([]float64{1}, []float64{1}) != 0 {
		t.Fatal("degenerate fit should be 0")
	}
}

func TestPct(t *testing.T) {
	if pct(100, 110) != 10 {
		t.Fatalf("pct = %g", pct(100, 110))
	}
	if pct(0, 5) != 0 {
		t.Fatal("pct(0, x) should be 0")
	}
}

// --- helpers ---

// dataLines returns non-comment, non-header CSV rows (lines whose first
// field parses as a number or aspect tag).
func dataLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		l = strings.TrimSpace(l)
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		first := strings.Split(l, ",")[0]
		if isNumeric(first) || strings.HasPrefix(first, "1:") || isBenchName(first) {
			lines = append(lines, l)
		}
	}
	return lines
}

func isBenchName(s string) bool {
	return strings.HasPrefix(s, "n") || strings.HasPrefix(s, "ami")
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && c != '.' && c != '-' && c != '+' && c != 'e' {
			return false
		}
	}
	return true
}

// fields parses a CSV line into float64s (non-numeric fields become 0).
func fields(l string) []float64 {
	parts := strings.Split(l, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		if v, err := strconv.ParseFloat(strings.TrimSpace(p), 64); err == nil {
			out[i] = v
		}
	}
	return out
}

// tail returns the last few lines of s for error messages.
func tail(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > 6 {
		lines = lines[len(lines)-6:]
	}
	return strings.Join(lines, "\n")
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations take ~10s in quick mode")
	}
	out := runQuick(t, "ablations")
	for _, study := range []string{"constraints,full", "constraints,lazy", "solver,ipm", "solver,admm", "netmodel,clique", "hierarchy,two-level"} {
		if !strings.Contains(out, study) {
			t.Fatalf("missing %q in:\n%s", study, out)
		}
	}
}
