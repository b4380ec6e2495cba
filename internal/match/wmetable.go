package match

import (
	"unsafe"

	"parulel/internal/wm"
)

// WMETable finds a matcher's record of a WME: an open-addressed table of
// record handles hashed by time tag, beside the WME of every record by
// handle (the wmes each method is handed). WMEs are read-only and one may
// be fed to several matchers at once (the differentials feed RETE and
// TREAT the same ones), so what one knows about a WME cannot live on it.
type WMETable struct {
	slots []int32 // zero is empty; length zero or a power of two
	n     int
}

const minTable = 16

func (tb *WMETable) home(w *wm.WME) int {
	return int(uint64(w.Time)*0x9e3779b97f4a7c15>>32) & (len(tb.slots) - 1)
}

// find returns the slot holding w's record, or the empty slot it would go
// in.
func (tb *WMETable) find(w *wm.WME, wmes []*wm.WME) int {
	for i := tb.home(w); ; i = (i + 1) & (len(tb.slots) - 1) {
		if h := tb.slots[i]; h == 0 || wmes[h] == w {
			return i
		}
	}
}

// Len returns the number of records in the table, and Bytes the memory
// it takes.
func (tb *WMETable) Len() int   { return tb.n }
func (tb *WMETable) Bytes() int { return len(tb.slots) * int(unsafe.Sizeof(int32(0))) }

// Get returns w's record, or zero.
func (tb *WMETable) Get(w *wm.WME, wmes []*wm.WME) int32 {
	if tb.n == 0 {
		return 0
	}
	return tb.slots[tb.find(w, wmes)]
}

// Put enters h, the record of a WME not in the table. The table is kept
// at most half full.
func (tb *WMETable) Put(h int32, wmes []*wm.WME) {
	if tb.n++; 2*tb.n > len(tb.slots) {
		old := tb.slots
		tb.slots = make([]int32, max(minTable, 2*len(old)))
		for _, o := range old {
			if o != 0 {
				tb.slots[tb.find(wmes[o], wmes)] = o
			}
		}
	}
	tb.slots[tb.find(wmes[h], wmes)] = h
}

// Remove takes out w's record and returns it, or zero. The entries after
// it that probed past its slot move up, so the table holds no tombstones;
// the last record out releases it.
func (tb *WMETable) Remove(w *wm.WME, wmes []*wm.WME) int32 {
	if tb.n == 0 {
		return 0
	}
	i := tb.find(w, wmes)
	h := tb.slots[i]
	if h == 0 {
		return 0
	}
	if tb.n--; tb.n == 0 {
		tb.slots = nil
		return h
	}
	mask := len(tb.slots) - 1
	for j := (i + 1) & mask; tb.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if k := tb.home(wmes[tb.slots[j]]); (j-k)&mask >= (j-i)&mask {
			tb.slots[i] = tb.slots[j]
			i = j
		}
	}
	tb.slots[i] = 0
	return h
}
