package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"waran/internal/exp"
	"waran/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden record in internal/exp/testdata/paper from this run")

// unstable names the members of a figure's JSON that read the wall clock:
// the registry snapshot and the deadline watchdog's counts. The golden
// record leaves them out, at any depth.
var unstable = map[string]bool{
	"obs": true, "overruns_pre_open": true, "overruns_post_open": true,
	"overruns": true, "worst_ns": true, "p99_us": true,
}

// paperRun runs a figure at its default knobs, as `waranbench -fig name`
// does, holds its output to the figure's golden record and returns the
// result for the shape assertions.
func paperRun(t *testing.T, name string) any {
	t.Helper()
	e, ok := exp.Lookup(name)
	if !ok {
		t.Fatalf("no experiment %q", name)
	}
	run, _ := e.Bind(flag.NewFlagSet(name, flag.ContinueOnError))
	res, err := run(exp.Env{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, name, res, nil)
	return res
}

// checkGolden prints res as waranbench does, leaves out the JSON members
// named in drop, and compares the bytes with the figure's record in
// internal/exp/testdata/paper, or rewrites the record under -update.
func checkGolden(t *testing.T, name string, res any, drop map[string]bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := exp.Write(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if drop != nil {
		var err error
		if out, err = dropMembers(out, drop); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("..", "exp", "testdata", "paper", name+".golden")
	if *update {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("%s differs from its golden record %s (rerun with -update if the change is meant):\n%s",
			name, path, out)
	}
}

// dropMembers re-indents the JSON document in, leaving out every object
// member whose name is in drop. Member order is kept.
func dropMembers(in []byte, drop map[string]bool) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(in))
	dec.UseNumber()
	var out bytes.Buffer
	if err := copyValue(dec, &out, drop); err != nil {
		return nil, err
	}
	var ind bytes.Buffer
	if err := json.Indent(&ind, out.Bytes(), "", "  "); err != nil {
		return nil, err
	}
	ind.WriteByte('\n')
	return ind.Bytes(), nil
}

// copyValue copies the next JSON value from dec to out; with out nil it
// only consumes it.
func copyValue(dec *json.Decoder, out *bytes.Buffer, drop map[string]bool) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	emit := func(s string) {
		if out != nil {
			out.WriteString(s)
		}
	}
	switch tok {
	case json.Delim('{'):
		emit("{")
		first := true
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				return err
			}
			name := key.(string)
			if drop[name] {
				if err := copyValue(dec, nil, drop); err != nil {
					return err
				}
				continue
			}
			if !first {
				emit(",")
			}
			first = false
			k, _ := json.Marshal(name)
			emit(string(k) + ":")
			if err := copyValue(dec, out, drop); err != nil {
				return err
			}
		}
		_, err = dec.Token()
		emit("}")
		return err
	case json.Delim('['):
		emit("[")
		for i := 0; dec.More(); i++ {
			if i > 0 {
				emit(",")
			}
			if err := copyValue(dec, out, drop); err != nil {
				return err
			}
		}
		_, err = dec.Token()
		emit("]")
		return err
	}
	b, err := json.Marshal(tok)
	if err != nil {
		return fmt.Errorf("golden: %v: %w", tok, err)
	}
	emit(string(b))
	return nil
}
