package swmhttp

// DecodeExecBody exposes decodeExecBody to the package's external
// fuzz tests, which share one seed corpus.
var DecodeExecBody = decodeExecBody
