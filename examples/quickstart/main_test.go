package main

func Example() {
	main()
	// Output:
	// Extended OpenDwarfs quickstart: kmeans (MapReduce dwarf), tiny size
	// (tiny = working set sized for the Skylake 32 KiB L1, §4.4)
	//
	// i7-6700k    kernel median   0.0049 ms  CV 0.000  energy  0.0000 J  (verified against serial reference)
	// gtx1080     kernel median   0.0066 ms  CV 0.000  energy  0.0001 J  (verified against serial reference)
	//
	// Now the large size, where device differences matter (§5.1):
	// i7-6700k    srad/large kernel median   2.7667 ms  energy  0.1248 J
	// gtx1080     srad/large kernel median   0.3314 ms  energy  0.0342 J
	//
	// srad is bandwidth-bound (Structured Grid dwarf): the GPU's memory
	// system pulls ahead exactly as Figure 3a of the paper shows.
}
