package lang

// The reference printer and front end, exported to the external lang_test
// package: its oracles draw programs from internal/workload, which imports
// lang.
var (
	ReferencePrint    = referencePrint
	ReferenceProcHash = referenceProcHash
	ReferenceParse    = referenceParse
	DiffReference     = diffReference
	CheckCanonical    = checkCanonical
)
