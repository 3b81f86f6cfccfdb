package sim

// CongestCapBits is the CONGEST bandwidth cap this repository uses for an
// n-vertex network: 2·(⌊log2 n⌋+1) bits per edge per round, twice the bit
// length of n (so 10 bits at n = 16 and 22 at n = 1024), floored at 8 so
// toy topologies are not judged against a 2-bit cap. The constant 2 is the
// usual "a message is O(1) identifiers/colors" allowance. Given to
// Instrumented, the cap counts each round whose largest message exceeds
// it as one Stats.CongestViolations, and enforces nothing.
func CongestCapBits(n int) int64 {
	log := int64(1)
	for v := n; v > 1; v >>= 1 {
		log++
	}
	c := 2 * log
	if c < 8 {
		c = 8
	}
	return c
}
