// Package exp reproduces the paper's evaluation (§5): the Fig. 5 figures,
// the §5D fault matrix and the experiments that extend them, each a driver
// over the exported API of core and ric. All is the table cmd/waranbench
// runs; the gNB and RIC binaries do not link this package.
//
// testdata/paper holds the figures' golden record: `waranbench -fig X` at
// default knobs for 5a, 5b, 5c, safety and pluginfaults.
package exp
