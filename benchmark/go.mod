// The benchmark is a module of its own so that it builds from its own
// directory; the replace pulls the engine in from the checkout around it,
// and the vecstudy/ prefix is what lets it import vecstudy/internal/...
module vecstudy/benchmark

go 1.22

require vecstudy v0.0.0

replace vecstudy => ../
