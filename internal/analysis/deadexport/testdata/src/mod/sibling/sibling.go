// Package sibling stands for a module nested in this one, such as
// benchmark/: deadexport reads its selectors by name, without types.
package sibling

import "vecstudy/internal/dead"

func use() int { return dead.UsedBySibling() }
