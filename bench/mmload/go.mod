module mmfs/bench/mmload

go 1.22

require mmfs v0.0.0

replace mmfs => ../..
