module github.com/streamtune/streamtune/bench

go 1.22

require github.com/streamtune/streamtune v0.0.0

replace github.com/streamtune/streamtune => ../
