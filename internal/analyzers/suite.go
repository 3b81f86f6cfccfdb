package analyzers

// All returns the full distcolorvet suite in reporting order: the
// syntax-directed repository-invariant passes (detcheck, noallochot,
// ctxfirst, recovercheck), the flow-sensitive passes built on the
// CFG/dataflow engine (lockguard, leakcheck, lockorder, decodebounds,
// atomicguard), then the stdlib reimplementations of the stock nilness
// and shadow vet passes (one -vettool invocation covers stock and
// custom checks).
func All() []*Analyzer {
	return []*Analyzer{
		Detcheck,
		Noallochot,
		Ctxfirst,
		Recovercheck,
		Lockguard,
		Leakcheck,
		Lockorder,
		Decodebounds,
		Atomicguard,
		Nilness,
		Shadow,
	}
}
