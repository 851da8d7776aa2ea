package dead

import "testing"

func TestDead(t *testing.T) {
	if TestOnly()+Oracle()+NoReason() == 0 {
		t.Fatal("unreachable")
	}
}
