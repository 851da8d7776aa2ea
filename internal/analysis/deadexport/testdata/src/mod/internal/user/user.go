// Package user calls into package dead from another package.
package user

import "vetvecfixture/mod/internal/dead"

func use() int { return dead.UsedElsewhere() + dead.LiveProbe() }
