// SWAR column-max kernel. Lanes within a PE are lockstep every schedule
// column (they feed one adder tree), so the back-end's column duration is
// the maximum serial cost over the PE's participating lanes — the single
// hottest reduction in the simulator: it runs once per (schedule column, PE
// row, window). The kernel packs 8 lanes of uint8 costs per uint64 and
// computes the lane max branch-free with word-parallel byte compares, so a
// 16-lane tile folds 2 words per column instead of iterating a 16-element
// byte loop with a data-dependent branch per lane.
//
// Invariants:
//
//   - every cost byte is <= maxLaneCost (127): the word-parallel unsigned
//     compare borrows through bit 7 of each byte, so costs must leave the
//     high bit clear. newCostTable clamps accordingly; real costs never
//     exceed width+1 <= 17.
//   - cost slices are zero-padded to a whole number of 8-byte words
//     (padLanes), and mask bytes are exactly 0x00 (lane excluded) or 0xFF
//     (lane participates); padding bytes are 0x00.
//
// columnMaxScalar is the reference implementation; FuzzColumnMaxSWAR and
// TestColumnMaxMatchesScalar pin the two bit-identical over random planes
// and lane counts, including lane counts not divisible by 8.
package sim

import (
	"encoding/binary"
	"math/bits"
)

// maxLaneCost bounds the per-value serial cost stored in cost tables and
// activation cost planes, keeping bit 7 of every packed byte clear for the
// SWAR compare.
const maxLaneCost = 127

// laneWords returns the number of uint64 words that hold `lanes` packed
// byte costs.
func laneWords(lanes int) int { return (lanes + 7) / 8 }

// padLanes rounds a lane count up to a whole number of SWAR words, the
// required length of a cost buffer.
func padLanes(lanes int) int { return laneWords(lanes) * 8 }

// swarHigh selects bit 7 of every byte of a word.
const swarHigh = 0x8080808080808080

// byteMax returns the byte-wise unsigned max of two words, valid for byte
// values <= 127: (a|H)-b sets bit 7 of a byte exactly when that byte of a
// is >= the byte of b (no inter-byte borrow, since every minuend byte is >=
// 0x80 and every subtrahend byte <= 0x7F), and ge*0xFF spreads each
// resulting comparison bit into a full byte-select mask.
func byteMax(a, b uint64) uint64 {
	ge := (((a | swarHigh) - b) & swarHigh) >> 7
	m := ge * 0xff
	return (a & m) | (b &^ m)
}

// columnMax returns max(1, max cost over participating lanes): the cycles
// the PE spends on this schedule column. cost is a padLanes-sized buffer of
// per-lane serial costs; mask holds laneWords words with 0xFF bytes for
// participating lanes (effectual weights, or every lane when the config has
// no front-end to gate ineffectual ones) and 0x00 elsewhere. The floor of 1
// models the column issue slot: even a column whose every participating
// lane is zero-cost occupies the PE for a cycle.
func columnMax(cost []uint8, mask []uint64) int {
	var m uint64
	for i, w := range mask {
		m = byteMax(m, binary.LittleEndian.Uint64(cost[i*8:])&w)
	}
	m = byteMax(m, m>>32)
	m = byteMax(m, m>>16)
	m = byteMax(m, m>>8)
	if c := int(m & 0xff); c > 1 {
		return c
	}
	return 1
}

// columnMaxScalar is the reference column-max: the byte loop the engine ran
// before the SWAR kernel, kept as the executable specification the kernel
// is differentially tested against.
func columnMaxScalar(cost []uint8, mask []uint64) int {
	peMax := 1
	for ln := 0; ln < len(cost); ln++ {
		if mask[ln>>3]>>(8*uint(ln&7))&0xff != 0 && int(cost[ln]) > peMax {
			peMax = int(cost[ln])
		}
	}
	return peMax
}

// ColumnMax exposes the SWAR column-max to benchmark tooling outside the
// package; ColumnMaxScalar is its executable reference. Engine code calls
// the unexported kernels directly.
func ColumnMax(cost []uint8, mask []uint64) int       { return columnMax(cost, mask) }
func ColumnMaxScalar(cost []uint8, mask []uint64) int { return columnMaxScalar(cost, mask) }

// swarLow7 is 0x7F in every byte: added to a word of bytes <= 127 it sets
// bit 7 of exactly the non-zero bytes, with no carry between bytes.
const swarLow7 = 0x7f7f7f7f7f7f7f7f

// nonZeroBytes counts the non-zero bytes of a word of bytes <= 127.
func nonZeroBytes(x uint64) int {
	return bits.OnesCount64((x + swarLow7) & swarHigh)
}

// byteSum adds the eight bytes of a word of bytes <= 127. Eight such bytes
// can sum past 255, so the sum widens first: byte pairs fold into four
// 16-bit fields (each <= 254), and one multiply gathers their total (<=
// 1016, so no field overflows) into the top field.
func byteSum(x uint64) int {
	const pairs = 0x00ff00ff00ff00ff
	x = x&pairs + x>>8&pairs
	return int(x * 0x0001000100010001 >> 48)
}

// maskLanes counts the lanes a 0x00/0xFF byte mask selects.
func maskLanes(mask []uint64) int {
	n := 0
	for _, m := range mask {
		n += bits.OnesCount64(m)
	}
	return n / 8
}

// fullLaneMask returns the participation mask with the first `lanes` lanes
// set — the mask every PE row shares when the config has no front-end
// (nothing gates ineffectual lanes out of the column sync).
func fullLaneMask(lanes int) []uint64 {
	mask := make([]uint64, laneWords(lanes))
	for ln := 0; ln < lanes; ln++ {
		mask[ln>>3] |= 0xff << (8 * uint(ln&7))
	}
	return mask
}
