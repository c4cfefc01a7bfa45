package dram

import (
	"reflect"
	"testing"

	"pride/internal/guard"
)

// flipView is what an OnFlip observer sees: the flip and the bank's
// counters at that moment.
type flipView struct {
	Flip
	Stats          Stats
	MaxDisturbance int
	MaxHammers     int
}

// watchFlips records every flip of b together with the bank state its
// observer sees.
func watchFlips(b *Bank) *[]flipView {
	var seen []flipView
	b.OnFlip(func(f Flip) {
		seen = append(seen, flipView{f, b.Stats(), b.MaxDisturbance(), b.MaxHammers()})
	})
	return &seen
}

// rowsSchedule returns a seeded block of rows: half from a 24-row hot set
// so victims cross a low threshold, the rest anywhere in the bank, with
// the edge rows 0 and rows-1 drawn often.
func rowsSchedule(s *uint64, rows, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		*s = *s*6364136223846793005 + 1442695040888963407
		v := *s >> 33
		switch v % 8 {
		case 0:
			out[i] = 0
		case 1:
			out[i] = int32(rows - 1)
		case 2, 3, 4, 5:
			out[i] = int32(rows/2 + int(v>>8)%24)
		default:
			out[i] = int32(int(v>>8) % rows)
		}
	}
	return out
}

// TestActivateRowsEquivalentToActivate drives twin banks through the same
// seeded rows — one Activate per row against ActivateRows over blocks of
// random length — interleaved with mitigations and periodic refresh, and
// requires every row's hammer count and activation run, the maxima, the
// stats, the flips in order, and what each flip's observer saw to match.
func TestActivateRowsEquivalentToActivate(t *testing.T) {
	for _, radius := range []int{1, 2} {
		for _, trh := range []int{0, 9} {
			for _, check := range []bool{false, true} {
				p := testParams()
				p.BlastRadius = radius
				stepped, batched := MustNewBank(p, trh), MustNewBank(p, trh)
				stepped.SetSelfCheck(check)
				batched.SetSelfCheck(check)
				sv, bv := watchFlips(stepped), watchFlips(batched)
				s := uint64(radius*100 + trh)
				for ev := 0; ev < 300; ev++ {
					s = s*6364136223846793005 + 1442695040888963407
					switch s % 6 {
					case 0:
						row := int(s>>33) % p.RowsPerBank
						stepped.Mitigate(row, 1)
						batched.Mitigate(row, 1)
					case 1:
						stepped.StepRefresh()
						batched.StepRefresh()
					default:
						rows := rowsSchedule(&s, p.RowsPerBank, int(s>>20)%200)
						for _, r := range rows {
							stepped.Activate(int(r))
						}
						batched.ActivateRows(rows)
					}
				}
				label := "radius/trh/selfcheck"
				banksEqual(t, label, stepped, batched)
				if trh > 0 && len(*sv) == 0 {
					t.Fatalf("radius %d trh %d: the schedule flipped nothing", radius, trh)
				}
				if !reflect.DeepEqual(*sv, *bv) {
					t.Fatalf("radius %d trh %d selfcheck %v: flip observers saw different bank state", radius, trh, check)
				}
			}
		}
	}
}

// TestActivateRowsPanicsOutOfRange checks that a row out of range panics
// with the rows before it applied, exactly as per-row Activate leaves the
// bank.
func TestActivateRowsPanicsOutOfRange(t *testing.T) {
	p := testParams()
	for _, bad := range []int32{-1, int32(p.RowsPerBank)} {
		stepped, batched := MustNewBank(p, 3), MustNewBank(p, 3)
		rows := []int32{5, 6, 5, 6, 5, bad, 7}
		for _, r := range rows[:5] {
			stepped.Activate(int(r))
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ActivateRows with row %d did not panic", bad)
				}
			}()
			batched.ActivateRows(rows)
		}()
		banksEqual(t, "out-of-range", stepped, batched)
	}
}

// TestActivateRowsSelfCheckTrips pins the actrun-bound guard on the batch
// loop: a corrupted activation run must surface as a guard.Violation.
func TestActivateRowsSelfCheckTrips(t *testing.T) {
	b := MustNewBank(testParams(), 0)
	b.SetSelfCheck(true)
	b.actRun[7] = 100
	defer func() {
		v, ok := guard.AsViolation(recover())
		if !ok || v.Invariant != "actrun-bound" {
			t.Fatalf("corrupted run tripped %v, want dram.bank/actrun-bound", v)
		}
	}()
	b.ActivateRows([]int32{1, 7})
}

func TestActivateRowsAllocationFree(t *testing.T) {
	p := testParams()
	b := MustNewBank(p, 0)
	var s uint64 = 1
	rows := rowsSchedule(&s, p.RowsPerBank, 4096)
	if avg := testing.AllocsPerRun(100, func() { b.ActivateRows(rows) }); avg != 0 {
		t.Fatalf("ActivateRows allocates %v per block, want 0", avg)
	}
}
