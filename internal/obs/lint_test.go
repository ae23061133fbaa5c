package obs

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
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

// walkGo calls fn for every .go file under the scanned trees, with its
// path relative to the module root in forward slashes.
func walkGo(t *testing.T, fn func(rel, path string) error) {
	t.Helper()
	root := moduleRoot(t)
	for _, tree := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, tree), func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
				return err
			}
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			return fn(filepath.ToSlash(rel), p)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// goLines reads every line of every .go file under the scanned trees.
func goLines(t *testing.T) []srcLine {
	t.Helper()
	var out []srcLine
	walkGo(t, func(rel, path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for n := 1; sc.Scan(); n++ {
			out = append(out, srcLine{path: rel, n: n, text: sc.Text()})
		}
		return sc.Err()
	})
	if len(out) == 0 {
		t.Fatal("the lint scanned no source")
	}
	return out
}

func (l srcLine) String() string {
	return fmt.Sprintf("%s:%d: %s", l.path, l.n, strings.TrimSpace(l.text))
}

func exempt(l srcLine) bool { return strings.Contains(l.text, "metric-exempt") }

// TestLint runs the four telemetry rules over one read of the source lines
// and the API rule over its parse.
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
	// An exported identifier declared in internal/ is called, read or
	// named by some non-test code other than its own declaration: API only
	// tests reach is deleted or moved into the tests. The way past is an
	// "api-exempt: <why>" comment on the declaration, at most maxAPIExempt.
	t.Run("unused-api", func(t *testing.T) {
		decls, uses := apiScan(t)
		exempted := 0
		for _, d := range decls {
			if d.exempt != "" {
				exempted++
				t.Logf("api-exempt %s %s: %s", d.pos, d.name, d.exempt)
				continue
			}
			if uses[d.ident] == 0 {
				t.Errorf("exported %s has no non-test use (delete it, move it into the tests that call it, or annotate with api-exempt: <why>): %s", d.name, d.pos)
			}
		}
		if exempted > maxAPIExempt {
			t.Errorf("%d api-exempt declarations, at most %d allowed", exempted, maxAPIExempt)
		}
	})
}

// maxAPIExempt bounds the api-exempt escapes: stdlib-interface methods and
// the few names only the benchmark module calls.
const maxAPIExempt = 8

// apiDecl is one exported top-level declaration under internal/: a func,
// method, type, const or var.
type apiDecl struct {
	ident  string // the bare identifier
	name   string // Recv.Name or Name, for the message
	pos    string // path:line
	exempt string // the api-exempt reason, "" if none
}

// apiScan parses the non-test Go files under the scanned trees and returns
// the exported declarations under internal/ and, per identifier, how often
// it appears other than where something is declared. Uses are matched by
// name, so any same-named use counts: the rule can miss a dead name, never
// flag a live one.
func apiScan(t *testing.T) ([]apiDecl, map[string]int) {
	t.Helper()
	fset := token.NewFileSet()
	var decls []apiDecl
	uses := map[string]int{}
	walkGo(t, func(rel, path string) error {
		if strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		add := func(id *ast.Ident, recv string, doc, line *ast.CommentGroup) {
			if !strings.HasPrefix(rel, "internal/") || !id.IsExported() {
				return
			}
			name := id.Name
			if recv != "" {
				name = recv + "." + name
			}
			decls = append(decls, apiDecl{ident: id.Name, name: name,
				pos: fmt.Sprintf("%s:%d", rel, fset.Position(id.Pos()).Line), exempt: apiExempt(doc, line)})
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(decl.Name, recvName(decl), decl.Doc, nil)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, "", firstDoc(spec.Doc, decl.Doc), spec.Comment)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, "", firstDoc(spec.Doc, decl.Doc), spec.Comment)
						}
					}
				}
			}
		}
		// Every name that declares something — funcs, types, values, and
		// fields, parameters and interface methods — is not a use.
		declared := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
			case *ast.TypeSpec:
				declared[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.Ident:
				if !declared[n] {
					uses[n.Name]++
				}
			}
			return true
		})
		return nil
	})
	if len(decls) == 0 {
		t.Fatal("the API scan found no declarations")
	}
	return decls, uses
}

// recvName is the receiver's type name of a method, "" for a func.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok {
		typ = idx.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func firstDoc(docs ...*ast.CommentGroup) *ast.CommentGroup {
	for _, d := range docs {
		if d != nil {
			return d
		}
	}
	return nil
}

// apiExempt returns the reason of an "api-exempt: <why>" comment in a
// declaration's doc or line comment.
func apiExempt(groups ...*ast.CommentGroup) string {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if _, why, ok := strings.Cut(c.Text, "api-exempt:"); ok {
				return strings.TrimSpace(why)
			}
		}
	}
	return ""
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
