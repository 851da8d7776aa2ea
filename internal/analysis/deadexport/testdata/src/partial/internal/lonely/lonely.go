// Package lonely is loaded alone and marked partial: a package outside
// the load may call Unreferenced, so nothing is reported.
package lonely

// Unreferenced is named by no loaded file.
func Unreferenced() int { return 1 }
