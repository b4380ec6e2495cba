package workload

// The stream workload for the temporal subsystem: continuous fact arrival
// with TTL expiry and sliding-window rules. The generator is frame
// oriented — one frame is the unit of stream time (one temporal tick) —
// and fully deterministic given (seed, frame), so a replayed or
// restarted stream regenerates identical facts.

import (
	"fmt"
	"math/rand"

	"parulel/internal/wm"
)

// FraudStreamProgram is the fraud-detection stream application:
// transactions expire six ticks after absorption, a per-card sliding
// window counts the live transactions of the last six ticks, and a card
// whose window holds more than three transactions is flagged once.
// Flags persist (bounded by the card population), transactions are
// TTL-evicted, so working memory stays bounded no matter how many
// transactions stream through.
const FraudStreamProgram = `
(literalize txn id card amount state)
(literalize flag card n)
(ttl txn 6)
(window cardwin txn ^key card ^ticks 6 ^val amount)
(rule flag-burst
  (cardwin ^key <c> ^count <n>)
  (test (> <n> 3))
  - (flag ^card <c>)
-->
  (make flag ^card <c> ^n <n>))
(rule settle
  <t> <- (txn ^id <i> ^state new)
-->
  (modify <t> ^state settled))
`

// FraudTxns returns one frame of the fraud stream: `count` transactions
// spread over `cards` cards. Most draws are uniform; a rotating hot card
// (advancing every four frames) receives every fourth transaction, so
// its six-tick window reliably crosses the burst threshold while the
// rest stay under it.
func FraudTxns(frame, count, cards int, seed int64) []map[string]wm.Value {
	rng := rand.New(rand.NewSource(seed + int64(frame)*7919))
	hot := (frame / 4) % cards
	out := make([]map[string]wm.Value, count)
	for i := range out {
		card := rng.Intn(cards)
		if i%4 == 0 {
			card = hot
		}
		out[i] = map[string]wm.Value{
			"id":     wm.Int(int64(frame*count + i)),
			"card":   wm.Sym(fmt.Sprintf("card-%03d", card)),
			"amount": wm.Int(int64(1 + rng.Intn(500))),
			"state":  wm.Sym("new"),
		}
	}
	return out
}
