//go:build race

package testutil

// Race reports whether the binary was built with -race. The race runtime
// allocates on its own, so exact allocation budgets hold only without it.
const Race = true
