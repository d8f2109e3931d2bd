package main

// Example pins everything the RAID example prints: the striped-write
// latency of both protocols and the OLTP replay times.
func Example() {
	main()
	// Output:
	// RDMA (CPU protocol) 64 KiB striped write: 8.664us
	// sPIN (NIC protocol)  64 KiB striped write: 3.160us
	//
	// replaying 200 OLTP requests (71% writes, mean 2181 B):
	//   RDMA: 0.279 ms
	//   sPIN: 0.215 ms
	//   improvement: 22.9% (paper reports 2.8%..43.7% across the SPC traces)
}
