//! The store's layout is a function of every similarity answer: which open
//! partition a TRAD chunk joins, which stored chunk a new one is a delta
//! against. A probe that returns a different item than before moves a
//! partition file or a counter here, in seconds, instead of showing up as a
//! `stored_ratio` drift in a benchmark run. The `StoreStats` below were
//! recorded on the commit before the LSH index was rebuilt around dense
//! slots (DESIGN.md §17 "Base selection"); the file lengths were re-recorded
//! when partitions became one member frame per chunk, and again with the
//! partition lengths and digests when the directory came to carry each
//! member's hash (format version 2, DESIGN.md §11 "Partition file format")
//! — format changes, each with every `StoreStats` field and every index
//! file unmoved.
//!
//! The second case logs three checkpoints of a net with a frozen prefix:
//! every file it leaves (partitions and index files, by name, length and
//! content digest) and every `StoreStats` field are pinned, so a shortcut
//! that logs the shared prefix once must leave exactly what logging it
//! three times left.

use std::path::Path;
use std::sync::Arc;

use mistique_core::{Mistique, MistiqueConfig};
use mistique_dedup::content_digest;
use mistique_nn::{simple_cnn, vgg16_cifar, CifarLike};
use mistique_pipeline::templates::zillow_pipelines;
use mistique_pipeline::ZillowData;
use mistique_store::DataStoreConfig;

/// Every `part_*.bin` under `dir`, by name, with its length.
fn partition_files(dir: &Path, out: &mut Vec<(String, u64)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        if entry.file_type().unwrap().is_dir() {
            partition_files(&entry.path(), out);
        } else if name.starts_with("part_") && name.ends_with(".bin") {
            out.push((name, entry.metadata().unwrap().len()));
        }
    }
}

#[test]
fn similarity_answers_leave_the_layout_unchanged() {
    let dir = mistique_testkit::tempdir().unwrap();
    // Small partitions, so some seal while logging goes on: placement must
    // skip them and delta bases must be probed off disk.
    let config = MistiqueConfig {
        row_block_size: 16,
        datastore: DataStoreConfig {
            partition_target_bytes: 128 << 10,
            ..DataStoreConfig::default()
        },
        ..MistiqueConfig::default()
    };
    let mut sys = Mistique::open(dir.path(), config).unwrap();

    // TRAD: similarity placement and delta probes on every new chunk.
    let zillow = Arc::new(ZillowData::generate(400, 42));
    for p in zillow_pipelines().into_iter().step_by(5).take(6) {
        let id = sys.register_trad(p, Arc::clone(&zillow)).unwrap();
        sys.log_intermediates(&id).unwrap();
    }
    // DNN: two checkpoints of an unfrozen net — nearly every put is new and
    // probes for a delta base among thousands of look-alike activations.
    let cifar = Arc::new(CifarLike::generate(32, 10, 7));
    let arch = Arc::new(simple_cnn(16));
    for epoch in 0..2 {
        let id = sys
            .register_dnn(Arc::clone(&arch), 3, epoch, Arc::clone(&cifar), 16)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
    }
    sys.flush().unwrap();

    let s = sys.store().stats();
    let got = (
        s.unique_bytes,
        s.dedup_hits,
        s.chunks_stored,
        s.partitions_created,
        s.similarity_placements,
        s.delta_puts,
        s.delta_bytes_saved,
    );
    assert_eq!(
        got,
        (501774, 9968, 6966, 229, 543, 326, 22934),
        "StoreStats moved"
    );
    let mut files = Vec::new();
    partition_files(dir.path(), &mut files);
    files.sort();
    let want = PARTITION_LENS
        .iter()
        .enumerate()
        .map(|(id, &len)| (format!("part_{id:08x}.bin"), len));
    assert_eq!(files, want.collect::<Vec<_>>(), "partition files moved");
    sys.store().check_invariants().unwrap();
}

/// Every `part_*.bin` and `idx_*.idx` under `dir`, by name, with its length
/// and content digest, sorted by name.
fn store_files(dir: &Path) -> Vec<(String, u64, (u64, u64))> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            if entry.file_type().unwrap().is_dir() {
                stack.push(entry.path());
            } else if (name.starts_with("part_") && name.ends_with(".bin"))
                || (name.starts_with("idx_") && name.ends_with(".idx"))
            {
                let bytes = std::fs::read(entry.path()).unwrap();
                let d = content_digest(&bytes);
                out.push((name, bytes.len() as u64, (d.0, d.1)));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn a_frozen_prefix_leaves_the_layout_of_logging_it_every_time() {
    let dir = mistique_testkit::tempdir().unwrap();
    // Two RowBlocks per layer, and partitions small enough that the first
    // checkpoint's prefix seals some of them before the next one logs.
    let config = MistiqueConfig {
        row_block_size: 16,
        datastore: DataStoreConfig {
            partition_target_bytes: 64 << 10,
            ..DataStoreConfig::default()
        },
        ..MistiqueConfig::default()
    };
    let mut sys = Mistique::open(dir.path(), config).unwrap();
    let cifar = Arc::new(CifarLike::generate(24, 10, 11));
    let arch = Arc::new(vgg16_cifar(16));
    for epoch in 0..3 {
        let id = sys
            .register_dnn(Arc::clone(&arch), 5, epoch, Arc::clone(&cifar), 16)
            .unwrap();
        sys.log_intermediates(&id).unwrap();
    }
    sys.flush().unwrap();

    let s = sys.store().stats();
    let got = (
        s.logical_bytes,
        s.unique_bytes,
        s.dedup_hits,
        s.chunks_stored,
        s.partitions_created,
        s.similarity_placements,
        s.delta_puts,
        s.delta_bytes_saved,
    );
    assert_eq!(
        got,
        (1560108, 360468, 22671, 6765, 25, 0, 58, 1229),
        "StoreStats moved"
    );
    let want: Vec<(String, u64, (u64, u64))> = FROZEN_PREFIX_FILES
        .iter()
        .map(|&(name, len, digest)| (name.to_string(), len, digest))
        .collect();
    assert_eq!(store_files(dir.path()), want, "store files moved");
    sys.store().check_invariants().unwrap();
}

/// Length of `part_{i:08x}.bin`, for every partition the run creates.
#[rustfmt::skip]
const PARTITION_LENS: [u64; 229] = [
    113, 9799, 3522, 181, 250, 126, 181, 117, 181, 256, 123, 181, 117, 181, 250, 123,
    181, 117, 181, 181, 124, 181, 117, 181, 250, 123, 181, 117, 181, 253, 126, 181,
    117, 181, 250, 126, 181, 117, 181, 250, 126, 181, 117, 181, 250, 119, 181, 117,
    181, 250, 124, 181, 117, 181, 253, 124, 181, 117, 181, 250, 119, 181, 117, 181,
    181, 126, 181, 117, 181, 256, 119, 181, 117, 181, 181, 124, 181, 117, 181, 259,
    123, 181, 124, 181, 249, 119, 181, 123, 181, 445, 124, 181, 123, 181, 256, 124,
    181, 123, 181, 259, 124, 181, 123, 181, 250, 126, 181, 123, 181, 256, 126, 181,
    123, 181, 250, 126, 181, 123, 181, 259, 124, 181, 123, 181, 250, 121, 181, 674,
    26711, 1719, 102, 87, 123, 123, 123, 123, 123, 123, 123, 87, 114, 90, 114, 181,
    256, 121, 181, 181, 256, 124, 181, 181, 256, 126, 181, 181, 253, 124, 181, 181,
    253, 126, 181, 181, 254, 124, 181, 181, 181, 117, 181, 114, 211, 90, 114, 2999,
    12351, 181, 181, 181, 181, 181, 181, 181, 181, 181, 181, 181, 181, 181, 181, 181,
    181, 181, 181, 181, 181, 181, 181, 181, 181, 181, 114, 181, 181, 181, 181, 181,
    181, 181, 114, 91597, 49208, 12310, 49015, 39426, 10652, 39425, 3250, 1941, 57548, 84876, 22812, 30697,
    24599, 6165, 24599, 3790, 1941,
];

/// Every partition and index file of the frozen-prefix case: name, length,
/// content digest.
#[rustfmt::skip]
const FROZEN_PREFIX_FILES: [(&str, u64, (u64, u64)); 88] = [
    ("idx_CIFAR10_VGG16@epoch0.layer1.idx", 506959, (0xf152cde439f12b40, 0x77625d4d7ec2697e)),
    ("idx_CIFAR10_VGG16@epoch0.layer10.idx", 31842, (0x2c6aa68c1fc955ee, 0xc1f629bd60a1bbea)),
    ("idx_CIFAR10_VGG16@epoch0.layer11.idx", 65035, (0x9d3d487f53ff66fb, 0x9b63b315b4d3d8d6)),
    ("idx_CIFAR10_VGG16@epoch0.layer12.idx", 58987, (0xb2986f7166f691df, 0xba579bd3f8a9573c)),
    ("idx_CIFAR10_VGG16@epoch0.layer13.idx", 74611, (0x38edb3e1a6be293a, 0xdf01ae3e162f40e7)),
    ("idx_CIFAR10_VGG16@epoch0.layer14.idx", 19238, (0xc8d08653ec4c42e7, 0xdfbbe12aacb4ec8f)),
    ("idx_CIFAR10_VGG16@epoch0.layer15.idx", 17726, (0x7ebfdd8bcdd6dc98, 0x37d6ada78093795c)),
    ("idx_CIFAR10_VGG16@epoch0.layer16.idx", 18230, (0xc30951d0d1a9a4cc, 0x8a1e35a9e1c52110)),
    ("idx_CIFAR10_VGG16@epoch0.layer17.idx", 13694, (0x4b13c2e4e70b5cba, 0x2e915f18c7c5a93f)),
    ("idx_CIFAR10_VGG16@epoch0.layer18.idx", 13694, (0x8106fde37f315b51, 0x83ceceb4edf4ace8)),
    ("idx_CIFAR10_VGG16@epoch0.layer19.idx", 13694, (0x861d6767b255ff17, 0x5bc41a68afaadf1f)),
    ("idx_CIFAR10_VGG16@epoch0.layer2.idx", 310777, (0xa025aaebc7425a73, 0xb83b3ebf557cf426)),
    ("idx_CIFAR10_VGG16@epoch0.layer20.idx", 14702, (0xf53b58e170e60b0c, 0x1857a3ea2dc1c455)),
    ("idx_CIFAR10_VGG16@epoch0.layer21.idx", 7038, (0xd4ddf5c870111847, 0x2c6a6fd96486850c)),
    ("idx_CIFAR10_VGG16@epoch0.layer3.idx", 93276, (0xa33ed74c0f25abeb, 0x720f7b8f05813c5c)),
    ("idx_CIFAR10_VGG16@epoch0.layer4.idx", 196560, (0x27172f10dfb3d80a, 0xdbcc8ab66fbee611)),
    ("idx_CIFAR10_VGG16@epoch0.layer5.idx", 290250, (0xdb7b18d5db7af24b, 0x04afc00b59cc0910)),
    ("idx_CIFAR10_VGG16@epoch0.layer6.idx", 72594, (0xdc367342dcf9ad3d, 0xd71b2c0c173934b3)),
    ("idx_CIFAR10_VGG16@epoch0.layer7.idx", 118962, (0x520e86e70351e25b, 0x376990098c0855fa)),
    ("idx_CIFAR10_VGG16@epoch0.layer8.idx", 116370, (0x4d9521d1695d3b98, 0xd58795a79b5b4991)),
    ("idx_CIFAR10_VGG16@epoch0.layer9.idx", 114660, (0x8584d3279e64c4ad, 0x482a352e7ec205aa)),
    ("idx_CIFAR10_VGG16@epoch1.layer1.idx", 506959, (0x590722b5ee801ade, 0x94270816bebf4cde)),
    ("idx_CIFAR10_VGG16@epoch1.layer10.idx", 31842, (0xdcec216d92993bd9, 0xd2d81b805a904a2e)),
    ("idx_CIFAR10_VGG16@epoch1.layer11.idx", 65035, (0x15e8112d159187dd, 0x1756a0fc2e295f8e)),
    ("idx_CIFAR10_VGG16@epoch1.layer12.idx", 58987, (0xadfdac0add13acba, 0x68c3cc500ac6d147)),
    ("idx_CIFAR10_VGG16@epoch1.layer13.idx", 74611, (0x974eafb8f46f6112, 0x38186cc88de38d70)),
    ("idx_CIFAR10_VGG16@epoch1.layer14.idx", 19238, (0xfc5069a39c1f8d9d, 0x56de469799bb30c8)),
    ("idx_CIFAR10_VGG16@epoch1.layer15.idx", 17726, (0xff0ef1cfe2f9abee, 0x133902eab6647ce5)),
    ("idx_CIFAR10_VGG16@epoch1.layer16.idx", 18230, (0xc2a76a64c96caf75, 0xe46b24f19b3c6cc9)),
    ("idx_CIFAR10_VGG16@epoch1.layer17.idx", 13694, (0x8767a24578ec7a48, 0xdf979155735353a8)),
    ("idx_CIFAR10_VGG16@epoch1.layer18.idx", 13694, (0x4d17aebf05ab3404, 0x61a8e56aa68f8291)),
    ("idx_CIFAR10_VGG16@epoch1.layer19.idx", 13694, (0xd872f851817524e6, 0x5e6efe760cdb0be2)),
    ("idx_CIFAR10_VGG16@epoch1.layer2.idx", 310777, (0x7d8b9eb0710f97d8, 0x84c1f404d9ce5b60)),
    ("idx_CIFAR10_VGG16@epoch1.layer20.idx", 15710, (0xbf1b9dcb97cb4721, 0xb75a3f8f8c1fde43)),
    ("idx_CIFAR10_VGG16@epoch1.layer21.idx", 7038, (0x493dc833d407f00a, 0xca50a79d55584a37)),
    ("idx_CIFAR10_VGG16@epoch1.layer3.idx", 93276, (0xd48f9c5e56fb3ffe, 0xee4688d0e56df4cf)),
    ("idx_CIFAR10_VGG16@epoch1.layer4.idx", 196560, (0xe6b0aaa5ded8a6a7, 0x4dc88f8e1c850c1a)),
    ("idx_CIFAR10_VGG16@epoch1.layer5.idx", 290250, (0x368cd2aaec228f74, 0x66093b15abbe907a)),
    ("idx_CIFAR10_VGG16@epoch1.layer6.idx", 72594, (0x9e4aa74740e0b201, 0x48b9cd1c5d9f4dda)),
    ("idx_CIFAR10_VGG16@epoch1.layer7.idx", 118962, (0xb75aa2e979a7d774, 0x41f20c253d0270f0)),
    ("idx_CIFAR10_VGG16@epoch1.layer8.idx", 116370, (0xa50232578198cfca, 0x30b34fca0e231a1f)),
    ("idx_CIFAR10_VGG16@epoch1.layer9.idx", 114660, (0xd3b13c3e184d2a1c, 0x28dd5f63ef55c02a)),
    ("idx_CIFAR10_VGG16@epoch2.layer1.idx", 506959, (0x2bc9f84ec579463a, 0x3b91d033bc5423b3)),
    ("idx_CIFAR10_VGG16@epoch2.layer10.idx", 31842, (0x4b042c36a4cb1e24, 0x6fac6e4f4ea4d23b)),
    ("idx_CIFAR10_VGG16@epoch2.layer11.idx", 65035, (0x6db5e3c9f3444938, 0xf4b531d8895995bd)),
    ("idx_CIFAR10_VGG16@epoch2.layer12.idx", 58987, (0xa47ba197b1aff726, 0x1232542d8c72a5a8)),
    ("idx_CIFAR10_VGG16@epoch2.layer13.idx", 74611, (0xa04c461621d4c117, 0xb763d6ea4bf4bea9)),
    ("idx_CIFAR10_VGG16@epoch2.layer14.idx", 19238, (0xaaa4763b9e28d22c, 0xf41c5eb8f4e15618)),
    ("idx_CIFAR10_VGG16@epoch2.layer15.idx", 17726, (0xa6a1bb13cb30547b, 0xe2033e9e01bc436b)),
    ("idx_CIFAR10_VGG16@epoch2.layer16.idx", 18230, (0x90f8ff351f0fdfa2, 0x685939c6c689b118)),
    ("idx_CIFAR10_VGG16@epoch2.layer17.idx", 13694, (0x2d8af7b1f15c64ec, 0x9cb561ba759badb2)),
    ("idx_CIFAR10_VGG16@epoch2.layer18.idx", 13694, (0xe2dad2648f411721, 0x283336da1506035f)),
    ("idx_CIFAR10_VGG16@epoch2.layer19.idx", 13694, (0x7d75b05980710491, 0x59c4670d9d2caef0)),
    ("idx_CIFAR10_VGG16@epoch2.layer2.idx", 310777, (0x5d6afa9a8677c9f7, 0xdd138f0796ce3fea)),
    ("idx_CIFAR10_VGG16@epoch2.layer20.idx", 14702, (0x4b2bc337411f7599, 0x2f79ca190ca22a0e)),
    ("idx_CIFAR10_VGG16@epoch2.layer21.idx", 7038, (0x5362380a52d3d98c, 0xbd33e823bda0a4a9)),
    ("idx_CIFAR10_VGG16@epoch2.layer3.idx", 93276, (0xaaab560e6e4e3886, 0x614cf4bf73c6e14d)),
    ("idx_CIFAR10_VGG16@epoch2.layer4.idx", 196560, (0x992bf4b99dc26cc9, 0xa0fa54a79adf4862)),
    ("idx_CIFAR10_VGG16@epoch2.layer5.idx", 290250, (0xce6e4131c8e2b359, 0x90fdad81a19f7602)),
    ("idx_CIFAR10_VGG16@epoch2.layer6.idx", 72594, (0x89775c0b53ed38a2, 0x7de31913c37fe249)),
    ("idx_CIFAR10_VGG16@epoch2.layer7.idx", 118962, (0x6193abea0334a7c6, 0x82f16dc13193c6eb)),
    ("idx_CIFAR10_VGG16@epoch2.layer8.idx", 116370, (0x314cab4b1e1d324a, 0x19a73310376ec20b)),
    ("idx_CIFAR10_VGG16@epoch2.layer9.idx", 114660, (0x600deb8e28227325, 0xe0b3de0e2dd558d8)),
    ("part_00000000.bin", 80831, (0xa5d32842c4269407, 0xf356014a4009f612)),
    ("part_00000001.bin", 67084, (0x0d0968b667c9b24c, 0x7b7c705f97f323e3)),
    ("part_00000002.bin", 72395, (0x133d331123388ebc, 0x0fe7947bb41c3a81)),
    ("part_00000003.bin", 22321, (0x8c1006c123c54a08, 0x41de154a404354be)),
    ("part_00000004.bin", 35231, (0x947a8df2b7a917ce, 0xbe70b1ae59bb25b6)),
    ("part_00000005.bin", 61465, (0x1f23efcb2829fe0c, 0xdf975e08224fcfa9)),
    ("part_00000006.bin", 15382, (0x6257c33e5baba719, 0x84d3b5ec90f030a4)),
    ("part_00000007.bin", 22423, (0xba9cfe65582ca3e3, 0x19793f7bdc3ed792)),
    ("part_00000008.bin", 21882, (0x2c48d4ce5e7f1f2e, 0x9ec463e2e54a5ed9)),
    ("part_00000009.bin", 21490, (0x5e2c6ed0f33d6800, 0xa0d391b59efff185)),
    ("part_0000000a.bin", 6261, (0x88572268edd6dca5, 0xd97d409bdbcc0f05)),
    ("part_0000000b.bin", 12982, (0x2315acb8f0bc8a15, 0x3f7543f691675941)),
    ("part_0000000c.bin", 11062, (0xf75edcf83e847264, 0xeec30520e76f423f)),
    ("part_0000000d.bin", 16022, (0x8cf372122b610350, 0xd18bb2997043ca3d)),
    ("part_0000000e.bin", 4181, (0x1b569db7a2bb338b, 0x4034f7a99bffb2c0)),
    ("part_0000000f.bin", 3701, (0xfe20313d05d36c9a, 0x99034902738b01b4)),
    ("part_00000010.bin", 3861, (0x09b61457b44c606e, 0x526c7ca111e7cd34)),
    ("part_00000011.bin", 2421, (0x60394206f91c0d60, 0x85653833cefe9cbc)),
    ("part_00000012.bin", 2421, (0x3f672ac3cb0e17ef, 0xb34980cd84e011a7)),
    ("part_00000013.bin", 2741, (0x8808d6955b1c140f, 0x99f2858077690c68)),
    ("part_00000014.bin", 1621, (0x7789d429eea52614, 0xc61ff507b3b0375f)),
    ("part_00000015.bin", 3061, (0x4058126f7f65b402, 0x71e1619e32aa4107)),
    ("part_00000016.bin", 1621, (0x3b3b4b988326a680, 0xeb8d30575a1d5496)),
    ("part_00000017.bin", 2741, (0x10fa26c4d2ace43e, 0x3e7bab45c800d824)),
    ("part_00000018.bin", 1621, (0xc2b7118862906321, 0x52fbde715e4e754c)),
];
