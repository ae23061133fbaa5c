package wasm_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExecutionReadsNoWallClock pins fuel as the only rule that can stop a
// guest: no file of the runtime imports "time" except the profiler, which
// only observes. A wall-clock check inside execution would make whether a
// call traps depend on how busy the machine is.
func TestExecutionReadsNoWallClock(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "profile.go" {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				t.Errorf("%s imports \"time\": execution must be bounded by fuel alone", name)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no runtime source files found")
	}
}
