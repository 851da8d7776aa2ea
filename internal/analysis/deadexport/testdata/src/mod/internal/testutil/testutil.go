// Package testutil exists for tests: its exports are not checked.
package testutil

// Helper is called only by tests.
func Helper() int { return 8 }
