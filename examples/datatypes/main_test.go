package main

// Example pins everything the datatypes example prints: the completion
// time and bandwidth of the strided unpack.
func Example() {
	main()
	// Output:
	// unpacked 384 KiB into 256 strided blocks of 1536 B
	// sPIN completion: 8.166us (44.8 GiB/s)
	// every block landed at offset k*3072 — no host unpack, no bounce buffer
}
