//! Criterion microbenchmarks of the substrate layers (real wall-clock
//! time of this reproduction's code, complementing the virtual-time
//! figures).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use fsapi::{Mode, OpenFlags, ProcFs};
use hare_core::{HareConfig, HareInstance};
use nccmem::{BlockId, Dram, PrivateCache};

/// Atomic-delivery channel send+recv, and a mailbox post+step: the two
/// transports an RPC crosses (request into the server's mailbox, reply
/// into the client's channel).
fn bench_channel(c: &mut Criterion) {
    let mut g = c.benchmark_group("msg");
    g.throughput(Throughput::Elements(1));
    g.bench_function("send_recv", |b| {
        let (tx, rx) = msg::channel::<u64>(msg::MsgStats::shared());
        b.iter(|| {
            tx.send(42, 0, 0).unwrap();
            std::hint::black_box(rx.try_recv().unwrap());
        })
    });
    g.bench_function("mailbox_post_step", |b| {
        let (tx, inbox) = msg::Mailboxes::new().mailbox::<u64>(msg::MsgStats::shared());
        inbox.serve(|env| {
            std::hint::black_box(env.payload);
        });
        b.iter(|| tx.send(42, 0, 0).unwrap())
    });
    g.finish();
}

/// Private-cache hit and miss paths.
fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("nccmem");
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("cache_hit_4k", |b| {
        let dram = Dram::new(4);
        let mut cache = PrivateCache::new(8);
        let mut buf = [0u8; 4096];
        cache.read(&dram, BlockId(0), 0, &mut buf); // warm
        b.iter(|| {
            cache.read(&dram, BlockId(0), 0, &mut buf);
            std::hint::black_box(buf[0]);
        })
    });
    g.bench_function("cache_miss_4k", |b| {
        let dram = Dram::new(4);
        let mut cache = PrivateCache::new(8);
        let mut buf = [0u8; 4096];
        b.iter(|| {
            cache.invalidate(BlockId(0));
            cache.read(&dram, BlockId(0), 0, &mut buf);
            std::hint::black_box(buf[0]);
        })
    });
    g.bench_function("writeback_4k", |b| {
        let dram = Dram::new(4);
        let mut cache = PrivateCache::new(8);
        b.iter(|| {
            cache.write(&dram, BlockId(0), 0, &[1u8; 64]);
            cache.writeback(&dram, BlockId(0));
        })
    });
    g.finish();
}

/// Full Hare RPC round trips (the servers step on this thread).
fn bench_hare_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("hare");
    g.sample_size(30);
    let inst = HareInstance::start(HareConfig::timeshare(2));
    let client = inst.new_client(0).unwrap();

    g.bench_function("create_close", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let path = format!("/bench_cc_{i}");
            i += 1;
            let fd = client
                .open(&path, OpenFlags::CREAT | OpenFlags::WRONLY, Mode::default())
                .unwrap();
            client.close(fd).unwrap();
        })
    });

    fsapi::write_file(&client, "/bench_read", &[7u8; 16384]).unwrap();
    g.bench_function("open_read16k_close", |b| {
        let mut buf = vec![0u8; 16384];
        b.iter(|| {
            let fd = client
                .open("/bench_read", OpenFlags::RDONLY, Mode::default())
                .unwrap();
            let mut got = 0;
            while got < buf.len() {
                let n = client.read(fd, &mut buf[got..]).unwrap();
                if n == 0 {
                    break;
                }
                got += n;
            }
            client.close(fd).unwrap();
            std::hint::black_box(buf[0]);
        })
    });

    fsapi::write_file(&client, "/bench_mv_a", b"x").unwrap();
    g.bench_function("rename_pair", |b| {
        b.iter_batched(
            || (),
            |_| {
                client.rename("/bench_mv_a", "/bench_mv_b").unwrap();
                client.rename("/bench_mv_b", "/bench_mv_a").unwrap();
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("stat", |b| {
        b.iter(|| std::hint::black_box(client.stat("/bench_read").unwrap()))
    });
    g.finish();
    drop(client);
    inst.shutdown();
}

criterion_group!(benches, bench_channel, bench_cache, bench_hare_ops);
criterion_main!(benches);
