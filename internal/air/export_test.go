package air

// TileSamples exposes the channel's tile grain to the external test
// package's oracle.
const TileSamples = tileSamples
