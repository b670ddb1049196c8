module taskml/bench

go 1.22

require taskml v0.0.0

replace taskml => ../
