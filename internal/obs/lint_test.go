package obs

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The telemetry lint: every counter, shed series, flight series and span
// name goes through this package and its subpackages, so the registry is
// the one place telemetry is read from. It scans the non-vendored Go source
// under internal/, cmd/ and examples/ from the module root. A deliberate
// non-metric use carries a "metric-exempt: <why>" comment on its line.

// srcLine is one line of Go source, path relative to the module root with
// forward slashes.
type srcLine struct {
	path string
	n    int
	text string
}

// moduleRoot walks up from the package directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the package directory")
		}
		dir = parent
	}
}

// goLines reads every line of every .go file under the scanned trees.
func goLines(t *testing.T) []srcLine {
	t.Helper()
	root := moduleRoot(t)
	var out []srcLine
	for _, tree := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, tree), func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
				return err
			}
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			f, err := os.Open(p)
			if err != nil {
				return err
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			sc.Buffer(nil, 1<<20)
			for n := 1; sc.Scan(); n++ {
				out = append(out, srcLine{path: filepath.ToSlash(rel), n: n, text: sc.Text()})
			}
			return sc.Err()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(out) == 0 {
		t.Fatal("the lint scanned no source")
	}
	return out
}

func (l srcLine) String() string {
	return fmt.Sprintf("%s:%d: %s", l.path, l.n, strings.TrimSpace(l.text))
}

func exempt(l srcLine) bool { return strings.Contains(l.text, "metric-exempt") }

// TestLint runs the four rules over one read of the source.
func TestLint(t *testing.T) {
	lines := goLines(t)
	// A raw atomic.Uint64 outside internal/obs is a counter the registry
	// cannot see.
	t.Run("raw-counters", func(t *testing.T) {
		for _, l := range lines {
			if strings.Contains(l.text, "atomic.Uint64") && !strings.HasPrefix(l.path, "internal/obs/") && !exempt(l) {
				t.Errorf("raw atomic.Uint64 outside internal/obs (register an obs.Counter, or annotate with metric-exempt: <why>): %s", l)
			}
		}
	})
	// A package declaring shed or brownout-transition count fields exposes
	// them as _shed_*_total samples.
	t.Run("shed-series", func(t *testing.T) {
		field := regexp.MustCompile(`Shed[A-Za-z]* +uint64|BrownoutTransitions +uint64`)
		series := regexp.MustCompile(`_shed_[a-z_]*_total`)
		exposed := map[string]bool{} // directory -> has a _shed_*_total
		for _, l := range lines {
			if series.MatchString(l.text) {
				exposed[pathDir(l.path)] = true
			}
		}
		for _, l := range lines {
			if field.MatchString(l.text) && !exempt(l) && !exposedUnder(exposed, pathDir(l.path)) {
				t.Errorf("shed/brownout counter with no _shed_*_total series in its package: %s", l)
			}
		}
	})
	// waran_flight_* series originate in internal/obs/flight: journal
	// through a flight.Recorder and let its Register expose them.
	t.Run("flight-series", func(t *testing.T) {
		for _, l := range lines {
			if strings.Contains(l.text, "waran_flight_") && !strings.HasPrefix(l.path, "internal/obs/flight/") &&
				!strings.HasSuffix(l.path, "_test.go") {
				t.Errorf("waran_flight_* series outside internal/obs/flight: %s", l)
			}
		}
	})
	// Span name constants live in internal/obs/trace/spans.go, so HopStats
	// and its SpanNames table see every hop.
	t.Run("span-names", func(t *testing.T) {
		decl := regexp.MustCompile(`Span[A-Za-z]* = "`)
		for _, l := range lines {
			if decl.MatchString(l.text) && l.path != "internal/obs/trace/spans.go" {
				t.Errorf("span name constant outside internal/obs/trace/spans.go: %s", l)
			}
		}
	})
}

// exposedUnder reports whether dir or a directory below it registers a
// shed series.
func exposedUnder(exposed map[string]bool, dir string) bool {
	for d := range exposed {
		if d == dir || strings.HasPrefix(d, dir+"/") {
			return true
		}
	}
	return false
}

func pathDir(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return "."
}
