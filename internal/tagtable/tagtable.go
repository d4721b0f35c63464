// Package tagtable is an open-addressing table of 8-byte cells, each a
// 32-bit tag and a 32-bit value, and the only index under the engine's two
// path-keyed structures: metastore.Store maps a path's hash to its entry's
// position, homeindex maps it to the file's home. The table never sees the
// paths. Several cells may share a tag, so a tag match is only a candidate
// that the caller confirms against its own data: Find returns the first
// cell of a tag and Next the following ones, one at a time.
//
// A tag's home slot is the tag scaled to the table (multiply-shift), so the
// table may be any size and home slots follow tag order. Each probe run is
// kept in that order — Robin Hood by home slot, ties by tag, a run wrapping
// past the table's end continuing at slot 0 — so same-tag cells sit
// together and a miss stops at the first cell ordered after its tag. Delete
// shifts the rest of a run back, leaving no tombstone.
//
// The table is at most 7/8 full and grows by about 1.5× (8, 12, 18, 27, …
// cells; see SizeFor), so over a growth cycle it runs 58–87.5% full. It
// never shrinks: its size is SizeFor of the most entries it has held, a
// function of the count alone and never of where the tags fall.
//
// A Table is not safe for concurrent use; its owner locks around it.
package tagtable

import "iter"

// cell is one entry. val 0 marks an empty cell, so callers store a value
// plus one.
type cell struct {
	tag, val uint32
}

// Table is the cell table. The zero value is an empty table of no cells.
type Table struct {
	cells []cell
	n     int
}

// minCells is the smallest non-empty table; it holds 7 entries.
const minCells = 8

// SizeFor returns the number of cells of a table sized for n entries: none
// for n = 0, else the first of 8, 12, 18, 27, 40, … (each the last plus
// half of it, rounded down) that is at most 7/8 full with n.
func SizeFor(n int) int {
	if n == 0 {
		return 0
	}
	c := minCells
	for 8*n > 7*c {
		c += c / 2
	}
	return c
}

// Make returns an empty table sized for n entries, so that inserting them
// never grows it.
func Make(n int) Table {
	return Table{cells: make([]cell, SizeFor(n))}
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.n }

// Size returns the number of cells, empty ones included.
func (t *Table) Size() int { return len(t.cells) }

// Val returns the value in slot i, 0 if the slot is empty.
func (t *Table) Val(i int) uint32 { return t.cells[i].val }

// SetVal replaces the value of the entry in slot i with val, which must not
// be 0. The entry keeps its slot, since slots depend on tags alone.
func (t *Table) SetVal(i int, val uint32) {
	if val == 0 {
		panic("tagtable: value 0 marks an empty cell")
	}
	t.cells[i].val = val
}

// home is tag's home slot, tag scaled to the table.
func (t *Table) home(tag uint32) int {
	return int(uint64(tag) * uint64(len(t.cells)) >> 32)
}

// next is the slot after i, wrapping at the table's end.
func (t *Table) next(i int) int {
	if i++; i == len(t.cells) {
		return 0
	}
	return i
}

// seek returns the first slot from tag's home that holds no cell ordered
// before tag: tag's first cell, the empty slot ending the run, or the cell
// a new entry of tag displaces. The table has cells and an empty one.
//
// Along the scan a cell precedes tag when its home slot comes first. While
// neither the scan nor the cell has wrapped past the table's end, that is
// exactly a smaller tag, since home slots follow tag order; the home slot
// is computed only to tell whether the cell wrapped, which matters in two
// cases: an unwrapped scan meeting a larger tag (a wrapped cell still
// precedes), and a wrapped scan meeting a smaller one (an unwrapped cell
// does not).
func (t *Table) seek(tag uint32) int {
	i, wrapped := t.home(tag), false
	for {
		c := t.cells[i]
		switch {
		case c.val == 0 || c.tag == tag:
			return i
		case c.tag < tag && !wrapped: // c precedes tag: scan on
		case c.tag > tag && wrapped:
			return i
		case t.home(c.tag) <= i: // c has not wrapped
			return i
		}
		if i++; i == len(t.cells) {
			i, wrapped = 0, true
		}
	}
}

// Find returns the slot of tag's first entry, or -1 when there is none.
func (t *Table) Find(tag uint32) int {
	if t.n == 0 {
		return -1
	}
	if i := t.seek(tag); t.cells[i].val != 0 && t.cells[i].tag == tag {
		return i
	}
	return -1
}

// Next returns the slot of the entry after slot i's that has the same tag,
// or -1 when slot i holds its tag's last entry. Find and Next visit every
// entry of a tag once.
func (t *Table) Next(i int) int {
	tag := t.cells[i].tag
	if j := t.next(i); t.cells[j].val != 0 && t.cells[j].tag == tag {
		return j
	}
	return -1
}

// Insert adds an entry, growing the table first when it would pass 7/8
// full. val must not be 0. Entries already holding tag are kept; the new
// one joins them.
func (t *Table) Insert(tag, val uint32) {
	if val == 0 {
		panic("tagtable: value 0 marks an empty cell")
	}
	if 8*(t.n+1) > 7*len(t.cells) {
		old := t.cells
		t.cells = make([]cell, SizeFor(t.n+1))
		for _, c := range old {
			if c.val != 0 {
				t.place(c)
			}
		}
	}
	t.place(cell{tag: tag, val: val})
	t.n++
}

// place puts c at its ordered slot, shifting the rest of the run one slot
// on into the empty slot that ends it.
func (t *Table) place(c cell) {
	for i := t.seek(c.tag); ; i = t.next(i) {
		c, t.cells[i] = t.cells[i], c
		if c.val == 0 {
			return
		}
	}
}

// Delete removes the entry in slot i, shifting the rest of its run back a
// slot: each cell moves up to the first that already sits at its home.
func (t *Table) Delete(i int) {
	for {
		j := t.next(i)
		c := t.cells[j]
		if c.val == 0 || t.home(c.tag) == j {
			break
		}
		t.cells[i] = c
		i = j
	}
	t.cells[i] = cell{}
	t.n--
}

// Filter deletes every entry keep rejects and returns how many it deleted;
// the table keeps its size. It rebuilds the table from the kept cells.
func (t *Table) Filter(keep func(tag, val uint32) bool) int {
	if t.n == 0 {
		return 0
	}
	old, n := t.cells, t.n
	t.cells, t.n = make([]cell, len(old)), 0
	for _, c := range old {
		if c.val != 0 && keep(c.tag, c.val) {
			t.place(c)
			t.n++
		}
	}
	return n - t.n
}

// All yields the tag and value of every entry, in slot order.
func (t *Table) All() iter.Seq2[uint32, uint32] {
	return func(yield func(tag, val uint32) bool) {
		for _, c := range t.cells {
			if c.val != 0 && !yield(c.tag, c.val) {
				return
			}
		}
	}
}
