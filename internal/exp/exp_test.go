package exp

import (
	"flag"
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestTableKnobsParseTheirDefaults checks the table: names are unique, and
// every experiment's knobs, bound onto a fresh flag set, accept their own
// printed defaults and read them back unchanged.
func TestTableKnobsParseTheirDefaults(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range All {
		if seen[e.Name] {
			t.Errorf("experiment %q listed twice", e.Name)
		}
		seen[e.Name] = true
		fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
		_, knobs := e.Bind(fs)
		var args []string
		for _, f := range knobs {
			args = append(args, "-"+e.Name+"."+f.Name, f.DefValue)
		}
		if err := fs.Parse(args); err != nil {
			t.Errorf("%s: its defaults do not parse: %v", e.Name, err)
			continue
		}
		for _, f := range knobs {
			if got := f.Value.String(); got != f.DefValue {
				t.Errorf("-%s.%s reads %q after parsing its default %q", e.Name, f.Name, got, f.DefValue)
			}
		}
	}
}

// TestE2FaultsExplicitZeroReachesRun sets the lossy connection's drop
// probability and reset point to zero on the command line: the run must
// use the zeros, not the experiment's defaults.
func TestE2FaultsExplicitZeroReachesRun(t *testing.T) {
	e, ok := Lookup("e2faults")
	if !ok {
		t.Fatal("e2faults is not in the table")
	}
	fs := flag.NewFlagSet("waranbench", flag.ContinueOnError)
	run, _ := e.Bind(fs)
	if err := fs.Parse([]string{"-e2faults.drop", "0", "-e2faults.reset", "0", "-e2faults.slots", "300"}); err != nil {
		t.Fatal(err)
	}
	out, err := run(Env{})
	if err != nil {
		t.Fatal(err)
	}
	res := out.(*E2FaultsResult)
	if res.DropProb != 0 || res.ResetAfter != 0 || res.FaultDrops != 0 || res.FaultResets != 0 {
		t.Fatalf("drop %v, reset after %d (%d drops, %d resets injected), want all 0",
			res.DropProb, res.ResetAfter, res.FaultDrops, res.FaultResets)
	}
}

// TestPluginFaultsExplicitZeroSeedReachesRun: seed 0 is a chaos seed like
// any other, so -pluginfaults.seed 0 must run seed 0, not the default 7.
func TestPluginFaultsExplicitZeroSeedReachesRun(t *testing.T) {
	e, ok := Lookup("pluginfaults")
	if !ok {
		t.Fatal("pluginfaults is not in the table")
	}
	fs := flag.NewFlagSet("waranbench", flag.ContinueOnError)
	run, _ := e.Bind(fs)
	if err := fs.Parse([]string{"-pluginfaults.seed", "0", "-pluginfaults.cells", "1"}); err != nil {
		t.Fatal(err)
	}
	out, err := run(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if res := out.(*PluginFaultsResult); res.Seed != 0 {
		t.Fatalf("ran seed %d, want 0", res.Seed)
	}
}

// TestBinariesDoNotLinkExp walks the module imports of the gNB and RIC
// binaries: the experiments are for waranbench, not for production.
func TestBinariesDoNotLinkExp(t *testing.T) {
	const module = "waran/"
	root := filepath.Join("..", "..")
	for _, cmd := range []string{"cmd/gnb", "cmd/ric"} {
		seen := map[string]bool{module + cmd: true}
		for queue := []string{module + cmd}; len(queue) > 0; queue = queue[1:] {
			pkg, err := build.Default.ImportDir(filepath.Join(root, strings.TrimPrefix(queue[0], module)), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range pkg.Imports {
				if strings.HasPrefix(imp, module) && !seen[imp] {
					seen[imp] = true
					queue = append(queue, imp)
				}
			}
		}
		if seen[module+"internal/exp"] {
			t.Errorf("%s links internal/exp", cmd)
		}
		if !seen[module+"internal/wasm"] {
			t.Errorf("%s: the walk never reached internal/wasm", cmd)
		}
	}
}
