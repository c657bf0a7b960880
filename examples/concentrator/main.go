// Concentrator example: a 64-port packet switch concentrates the active
// inputs of a sparse frame onto its 16 uplink ports — the concentration
// problem of Section IV, solved by tagging active inputs with 0 and
// binary-sorting the tags (the payloads ride through the same switches).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"absort"
)

type packet struct {
	src     int
	payload string
}

func main() {
	const (
		ports   = 64
		uplinks = 16
	)
	rng := rand.New(rand.NewSource(42))

	// The O(n)-cost time-multiplexed concentrator: a fish sorter with
	// k = lg n groups.
	conc := absort.NewConcentrator(ports, uplinks, absort.EngineFish, absort.FishK(ports))

	for frame := 1; frame <= 3; frame++ {
		// A sparse frame: each port is active with probability 1/8.
		inputs := make([]packet, ports)
		marked := make([]bool, ports)
		active := 0
		for i := range inputs {
			inputs[i] = packet{src: i, payload: fmt.Sprintf("idle-%d", i)}
			if rng.Intn(8) == 0 && active < uplinks {
				marked[i] = true
				active++
				inputs[i].payload = fmt.Sprintf("DATA[src=%d,frame=%d]", i, frame)
			}
		}

		perm, r, err := conc.Concentrate(marked)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("frame %d: %d active ports concentrated onto uplinks 0..%d\n",
			frame, r, r-1)
		for j := 0; j < r; j++ {
			fmt.Printf("  uplink %2d <- port %2d: %s\n",
				j, perm[j], inputs[perm[j]].payload)
		}
	}

	// Capacity enforcement: a frame with more requests than uplinks is
	// rejected rather than silently dropped.
	over := make([]bool, ports)
	for i := 0; i < uplinks+1; i++ {
		over[i] = true
	}
	if _, _, err := conc.Concentrate(over); err != nil {
		fmt.Printf("\nover-subscribed frame rejected: %v\n", err)
	}
}
