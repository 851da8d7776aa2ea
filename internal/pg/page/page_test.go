package page

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func newPage(t *testing.T, size, special int) Page {
	t.Helper()
	p := make(Page, size)
	Init(p, special)
	return p
}

func TestInitLayout(t *testing.T) {
	p := newPage(t, DefaultSize, 16)
	if !p.IsInit() {
		t.Fatal("page not initialized")
	}
	if p.NumItems() != 0 {
		t.Errorf("NumItems = %d", p.NumItems())
	}
	if len(p.Special()) != 16 {
		t.Errorf("special space %d bytes, want 16", len(p.Special()))
	}
	if p.FreeSpace() <= 0 || p.FreeSpace() >= DefaultSize {
		t.Errorf("implausible FreeSpace %d", p.FreeSpace())
	}
}

func TestInitPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Init accepted an undersized page")
		}
	}()
	Init(make(Page, 64), 0)
}

func TestAddAndGetItems(t *testing.T) {
	p := newPage(t, 4096, 8)
	var want [][]byte
	for i := 0; i < 20; i++ {
		item := bytes.Repeat([]byte{byte(i + 1)}, 10+i)
		off, err := p.AddItem(item)
		if err != nil {
			t.Fatal(err)
		}
		if off != uint16(i+1) {
			t.Fatalf("offset %d, want %d (1-based sequential)", off, i+1)
		}
		want = append(want, item)
	}
	for i, item := range want {
		got, err := p.Item(uint16(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, item) {
			t.Fatalf("item %d: got %v, want %v", i+1, got, item)
		}
	}
}

func TestItemsAreMaxAligned(t *testing.T) {
	p := newPage(t, 4096, 0)
	for i := 0; i < 10; i++ {
		if _, err := p.AddItem(make([]byte, 13)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint16(1); i <= p.NumItems(); i++ {
		off, _, _ := p.itemID(i - 1)
		if off%MaxAlign != 0 {
			t.Fatalf("item %d starts at %d, not MAXALIGNed", i, off)
		}
	}
}

func TestPageFull(t *testing.T) {
	p := newPage(t, MinSize, 0)
	added := 0
	for {
		_, err := p.AddItem(make([]byte, 64))
		if err == ErrPageFull {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		added++
		if added > 100 {
			t.Fatal("page never filled")
		}
	}
	if added == 0 {
		t.Fatal("no item fit an empty page")
	}
	// A full page must still serve reads.
	if _, err := p.Item(1); err != nil {
		t.Fatal(err)
	}
}

func TestItemTooBig(t *testing.T) {
	p := newPage(t, MinSize, 0)
	if _, err := p.AddItem(make([]byte, MinSize)); err != ErrItemTooBig {
		t.Errorf("err = %v, want ErrItemTooBig", err)
	}
}

func TestItemErrors(t *testing.T) {
	p := newPage(t, 4096, 0)
	if _, err := p.Item(1); err == nil {
		t.Error("read of missing item succeeded")
	}
	if _, err := p.Item(0); err == nil {
		t.Error("offset 0 accepted (offsets are 1-based)")
	}
	var uninit Page = make([]byte, 4096)
	if _, err := uninit.Item(1); err != ErrUninitPage {
		t.Errorf("uninit read: %v", err)
	}
	if _, err := uninit.AddItem([]byte{1}); err != ErrUninitPage {
		t.Errorf("uninit add: %v", err)
	}
}

func TestDeleteItem(t *testing.T) {
	p := newPage(t, 4096, 0)
	p.AddItem([]byte{1, 2, 3})
	p.AddItem([]byte{4, 5, 6})
	if err := p.DeleteItem(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Item(1); err != ErrDeadItem {
		t.Errorf("dead item read: %v", err)
	}
	if got, err := p.Item(2); err != nil || got[0] != 4 {
		t.Errorf("live item after delete: %v, %v", got, err)
	}
	if err := p.DeleteItem(9); err == nil {
		t.Error("deleted out-of-range item")
	}
}

func TestOverwriteItem(t *testing.T) {
	p := newPage(t, 4096, 0)
	p.AddItem([]byte{1, 2, 3, 4})
	if err := p.OverwriteItem(1, []byte{9, 8, 7, 6}); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Item(1)
	if got[0] != 9 || got[3] != 6 {
		t.Errorf("overwrite not applied: %v", got)
	}
	if err := p.OverwriteItem(1, make([]byte, 5)); err == nil {
		t.Error("oversized overwrite accepted")
	}
	// Shrinking overwrite adjusts the visible length.
	if err := p.OverwriteItem(1, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Item(1); len(got) != 1 || got[0] != 5 {
		t.Errorf("shrunk item: %v", got)
	}
}

func TestLSNRoundTrip(t *testing.T) {
	p := newPage(t, 4096, 0)
	p.SetLSN(0xDEADBEEF01)
	if p.LSN() != 0xDEADBEEF01 {
		t.Errorf("LSN = %x", p.LSN())
	}
}

func TestSpecialSpaceUntouchedByItems(t *testing.T) {
	p := newPage(t, 1024, 8)
	sp := p.Special()
	sp[0], sp[7] = 0xAA, 0xBB
	for {
		if _, err := p.AddItem(make([]byte, 32)); err != nil {
			break
		}
	}
	if sp[0] != 0xAA || sp[7] != 0xBB {
		t.Error("item data overwrote special space")
	}
}

func TestPropertyRandomItemsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := make(Page, 2048)
		Init(p, 8)
		var items [][]byte
		for {
			item := make([]byte, 1+rng.Intn(200))
			rng.Read(item)
			if _, err := p.AddItem(item); err != nil {
				break
			}
			items = append(items, item)
		}
		if int(p.NumItems()) != len(items) {
			return false
		}
		for i, want := range items {
			got, err := p.Item(uint16(i + 1))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
