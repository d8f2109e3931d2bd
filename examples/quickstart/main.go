// Quickstart: install a custom sPIN handler and watch it process
// packets — the programming model of §3.2 / Figure 2 (header, payload,
// and completion handlers on the NIC) in its smallest runnable form.
//
// A two-node system is built; rank 1 installs a payload handler that
// uppercases ASCII bytes on the NIC as packets stream through, depositing
// the transformed data into host memory. Rank 0 sends a message and the
// program prints what arrived, along with the simulated timing.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/spin"
)

func main() {
	cluster, err := spin.NewCluster(2, spin.IntegratedNIC())
	if err != nil {
		log.Fatal(err)
	}

	// Target: rank 1. Allocate a portal entry and install a matching
	// entry whose payload handler transforms data in-stream.
	target := cluster.NI(1)
	if _, err := target.PTAlloc(0, nil); err != nil {
		log.Fatal(err)
	}
	received := make([]byte, 4096)
	eq := cluster.NewEQ()
	me := &spin.ME{
		Start:     received,
		MatchBits: 0x42,
		EQ:        eq,
		Handlers: spin.HandlerSet{
			Payload: func(c *spin.Ctx, p spin.Payload) spin.PayloadRC {
				// Uppercase on the NIC, then DMA to the final location.
				buf := make([]byte, p.Size)
				for i, b := range p.Data {
					if 'a' <= b && b <= 'z' {
						b -= 'a' - 'A'
					}
					buf[i] = b
				}
				c.ChargePerByteMilli(p.Size, 250) // 4 B/cycle transform
				c.DMAToHostB(buf, p.Size, int64(p.Offset), spin.MEHostMem)
				return spin.PayloadDrop // we deposited it ourselves
			},
		},
	}
	if err := target.MEAppend(0, me, spin.PriorityList); err != nil {
		log.Fatal(err)
	}

	// Origin: rank 0 sends a message matched by the entry above.
	origin := cluster.NI(0)
	msg := []byte("streaming processing in the network!")
	if _, err := origin.Put(0, spin.PutArgs{
		MD:     origin.MDBind(msg, nil, nil),
		Length: len(msg),
		Target: 1, PTIndex: 0, MatchBits: 0x42,
	}); err != nil {
		log.Fatal(err)
	}

	end := cluster.Run()
	fmt.Printf("sent:     %q\n", msg)
	fmt.Printf("received: %q\n", received[:len(msg)])
	for _, ev := range eq.Events() {
		fmt.Printf("event:    %v from rank %d, %d bytes, at %v\n",
			ev.Type, ev.Source, ev.Length, ev.At)
	}
	fmt.Printf("simulated time: %v (%d events)\n", end, cluster.Eng.Processed())
	fmt.Printf("handler invocations on rank 1: %d, cycles: %d\n",
		target.RT.HandlerInvocations, target.RT.HandlerCycles)
}
