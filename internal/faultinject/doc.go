// Package faultinject holds the cluster-level fault-tolerance tests: lost
// map outputs, transport chaos, dead listeners and dead trackers, each
// scripted through one chaos.Schedule around a real shuffle engine, and
// each checked against a byte-identical TeraSort.
package faultinject
