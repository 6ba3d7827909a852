package ir

// ParseSeeds exposes FuzzParse's seed corpus to the external tests.
var ParseSeeds = parseSeeds
