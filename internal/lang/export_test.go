package lang

// The reference printer, exported to the external lang_test package: its
// oracle draws programs from internal/workload, which imports lang.
var (
	ReferencePrint    = referencePrint
	ReferenceProcHash = referenceProcHash
)
