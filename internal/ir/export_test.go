package ir

// ParseSeeds exposes FuzzParse's seed corpus to the external tests.
var ParseSeeds = parseSeeds

// PrintReference exposes the fmt-based reference printer to the external
// tests.
var PrintReference = printReference

// LayoutError and MutationError expose the layout checks to the external
// tests.
var (
	LayoutError   = layoutError
	MutationError = mutationError
)
