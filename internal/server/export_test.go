package server

// DecodeRun and DecodeTune expose the request decoders to the fuzz
// targets of the external test package, which shares its request
// fixtures.
var (
	DecodeRun  = decodeRun
	DecodeTune = decodeTune
)
