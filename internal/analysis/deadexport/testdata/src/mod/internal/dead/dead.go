// Package dead is the deadexport fixture. Loaded with its user package,
// a testutil package and a sibling module's sources, each exported
// function is one case the analyzer must flag (// want) or leave alone.
package dead

import "fmt"

// TestOnly is called only from dead_test.go, which the loader skips.
func TestOnly() int { return 1 } // want "exported dead.TestOnly is used by no non-test code"

// Recursive names only itself, which does not make it used.
func Recursive(n int) int { // want "exported dead.Recursive is used by no non-test code"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// T is a type whose methods reach callers in different ways.
type T struct{}

// Unused is a method nothing calls and no interface has.
func (T) Unused() {} // want "exported \(dead.T\).Unused is used by no non-test code"

// Sizer is an interface this package uses.
type Sizer interface{ Size() int }

// Size satisfies Sizer: a call through Sizer reaches it unnamed.
func (T) Size() int { return 0 }

// String satisfies fmt.Stringer, which nothing here names.
func (*T) String() string { return "T" }

// Live is called from use below.
func Live() int { return 2 }

// UsedElsewhere is called only from package user.
func UsedElsewhere() int { return 3 }

// UsedBySibling is selected only by the sibling module's sources.
func UsedBySibling() int { return 4 }

// Oracle is a test oracle and says why.
//
//vetvec:test-probe oracle for the fixture's tests
func Oracle() int { return 5 }

// NoReason carries the directive without a reason.
//
//vetvec:test-probe
func NoReason() int { return 6 } // want "//vetvec:test-probe on dead.NoReason needs a reason"

// LiveProbe carries the directive, but package user calls it.
//
//vetvec:test-probe oracle
func LiveProbe() int { return 7 } // want "dead.LiveProbe is used outside tests: drop its //vetvec:test-probe directive"

func use() {
	var s Sizer = T{}
	fmt.Println(s.Size(), Live())
}
