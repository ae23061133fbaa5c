package wasm

// LoweredOps lowers cm's functions to the closure tier, once, as the first
// closure-tier instantiation would, and returns per local function its
// lowered op count and its compiled instruction count.
func LoweredOps(cm *CompiledModule) [][2]int {
	cm.closOnce.Do(cm.buildClosures)
	out := make([][2]int, len(cm.funcs))
	for i, f := range cm.funcs {
		for _, st := range f.clos.steps {
			if st.op != nil {
				out[i][0]++
			}
		}
		out[i][1] = len(f.code)
	}
	return out
}

// GlobalValue returns the raw value of the exported global with that name.
func (in *Instance) GlobalValue(name string) (uint64, bool) {
	for _, e := range in.cm.m.Exports {
		if e.Kind == ExternGlobal && e.Name == name {
			ix := int(e.Index) // no imported globals supported
			if ix < len(in.globals) {
				return in.globals[ix], true
			}
		}
	}
	return 0, false
}
