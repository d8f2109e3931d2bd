package main

// Example pins everything the broadcast example prints: the completion
// time of the whole broadcast and of each sampled rank.
func Example() {
	main()
	// Output:
	// broadcast of 16 KiB to 32 ranks completed in 2.795us
	//   rank  1 done at 2.157us
	//   rank  3 done at 2.104us
	//   rank  7 done at 2.280us
	//   rank 15 done at 2.454us
	//   rank 31 done at 2.795us
	// forwarding ran on the NICs; intermediate hosts never woke up
}
