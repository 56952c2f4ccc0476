package main

func Example() {
	main()
	// Output:
	// Scheduling 10 tasks over 15 devices from 20 measured cells (§7)
	//
	// Policy comparison (same workload, fleet and cost model)
	// Policy          Makespan (ms)  Active (J)  Idle (J)  Devices  Deadline miss  Energy over  Measured  Predicted
	// --------------  -------------  ----------  --------  -------  -------------  -----------  --------  ---------
	// fastest-device  10.999         1.543       0.103     3        0              0            8         2
	// greedy          8.159          2.138       0.168     5        0              0            7         3
	// heft            7.361          1.946       0.868     10       0              0            3         7
	// energy          7.361          1.574       0.048     4        0              0            8         2
	//
	// Schedule timeline (heft): makespan 7.361 ms, energy 1.946 J active + 0.868 J idle
	// Device     Task            Start (ms)  Finish (ms)  Energy (J)  Source     Flags
	// ---------  --------------  ----------  -----------  ----------  ---------  -----
	// e5-2697v2  crc/large#5     0.000       1.569        0.127       predicted
	// i7-6700k   nw/large#7      0.000       5.755        0.155       measured
	// i5-3550    crc/large#4     0.000       1.511        0.126       predicted
	// titanx     fft/large#9     0.000       7.361        0.553       predicted
	// gtx1080    fft/large#8     0.000       4.727        0.484       measured
	// gtx1080ti  nw/large#6      0.000       5.500        0.193       predicted
	// k20m       srad/large#2    0.000       0.519        0.074       measured
	// k40m       srad/large#3    0.000       0.814        0.109       predicted
	// r9-290x    kmeans/large#1  0.000       0.444        0.063       predicted
	// r9-furyx   kmeans/large#0  0.000       0.430        0.062       predicted
	//
	// fastest-device piles everything onto the one best card; heft spreads
	// the queue and wins the makespan; energy trades some of that back for
	// Joules within its budget. crc still lands on a CPU while the
	// bandwidth-bound dwarfs pick modern GPUs — the per-dwarf affinities of §5.
}
