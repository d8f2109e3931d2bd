package main

// Example pins everything the quickstart prints: the bytes the handler
// deposited, the completion event and its time, the simulated end time,
// the event count and the handler's cycles.
func Example() {
	main()
	// Output:
	// sent:     "streaming processing in the network!"
	// received: "STREAMING PROCESSING IN THE NETWORK!"
	// event:    PUT from rank 0, 36 bytes, at 290.500ns
	// simulated time: 282.500ns (3 events)
	// handler invocations on rank 1: 1, cycles: 16
}
