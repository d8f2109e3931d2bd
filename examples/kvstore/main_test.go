package main

// Example pins everything the KV-store example prints: every key read
// back from the host and the simulated time of the seven NIC-side inserts.
func Example() {
	main()
	// Output:
	//   handler  -> a few hundred instructions, line rate
	//   hpu      -> handler processing unit
	//   loggops  -> L, o, g, G, O, P, S
	//   nisa     -> network instruction set architecture
	//   portals  -> the RDMA interface sPIN extends
	//   spin     -> streaming processing in the network
	//   wormhole -> packets forwarded before the message completes
	//
	// 7 inserts completed on the NIC in 4.509us; the server CPU ran nothing
}
