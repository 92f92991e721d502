package server

// DecodeTune exposes decodeTune to the fuzz target of the external
// test package, which shares its request fixtures.
var DecodeTune = decodeTune
