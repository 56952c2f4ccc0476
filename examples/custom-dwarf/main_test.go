package main

func Example() {
	main()
	// Output:
	// Custom dwarf: Graph Traversal (BFS) plugged into the suite harness
	//
	// i7-6700k   bfs/small kernel median   0.0578 ms  energy  0.0012 J  (verified vs serial BFS)
	// gtx1080    bfs/small kernel median   0.0571 ms  energy  0.0010 J  (verified vs serial BFS)
	// k20m       bfs/small kernel median   0.0767 ms  energy  0.0024 J  (verified vs serial BFS)
	//
	// Everything — the 2 s loop, 20-sample statistics, energy metering,
	// counters and verification — came from the suite harness; the new
	// benchmark only provided kernels, a profile and a serial reference.
}
