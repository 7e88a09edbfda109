//! The shard-worker process `serve_fleet` spawns: the process boundary
//! around [`sparseloop_serve::worker_main`], nothing else.

fn main() {
    sparseloop_serve::worker_main();
}
