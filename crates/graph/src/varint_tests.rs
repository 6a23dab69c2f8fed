//! Tests of the varint (compressed) flavor of `SNPLG2`: the LEB128 gap
//! codec, and whole varint files, which open through the eager decode
//! into an in-RAM [`CsrGraph`](crate::CsrGraph). The codec itself lives
//! in [`crate::v2`].

#[cfg(test)]
mod tests {
    use crate::io;
    use crate::store::{self, GraphStore};
    use crate::v2::{
        decode_all_blocks, decode_v2, encode_stream, parse_header, push_varint, read_varint,
        write_v2_varint,
    };
    use crate::{CsrGraph, GraphBuilder, GraphError};

    /// A graph whose adjacency spans several varint blocks.
    fn sample() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for (u, v) in [
            (0u32, 1u32),
            (0, 7),
            (0, 130),
            (1, 2),
            (5, 0),
            (64, 65),
            (64, 200),
            (199, 3),
            (200, 64),
        ] {
            b.add_edge(u, v);
        }
        b.build()
    }

    fn encode(g: &CsrGraph) -> Vec<u8> {
        let mut out = Vec::new();
        write_v2_varint(g, &mut out).expect("encode");
        out
    }

    /// Asserts `s` holds `g`'s out-adjacency.
    fn assert_same_adjacency(g: &CsrGraph, s: &dyn GraphStore) {
        assert_eq!(s.num_vertices(), g.num_vertices());
        assert_eq!(s.num_edges(), g.num_edges());
        for u in store::vertices(s) {
            assert_eq!(s.out_neighbors(u), g.out_neighbors(u), "{u} out");
            assert_eq!(s.out_degree(u), g.out_degree(u), "{u} out-degree");
        }
    }

    #[test]
    fn varint_codec_round_trips() {
        let mut buf = Vec::new();
        let values = [0u32, 1, 127, 128, 300, 16383, 16384, u32::MAX];
        for &v in &values {
            push_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).expect("decode"), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        push_varint(&mut buf, u32::MAX);
        let mut pos = 0;
        assert!(read_varint(&buf[..buf.len() - 1], &mut pos).is_err());
        // Six continuation bytes can never fit a u32.
        let over = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01];
        let mut pos = 0;
        assert!(read_varint(&over, &mut pos).is_err());
    }

    /// The graph decoded from a varint file is the CSR it was written
    /// from, list for list and degree for degree.
    #[test]
    fn compressed_store_matches_the_csr() {
        let g = sample();
        let bytes = encode(&g);
        assert!(
            parse_header(&bytes, bytes.len() as u64)
                .expect("header")
                .varint
        );
        let decoded = decode_v2(&bytes).expect("decode");
        assert_eq!(decoded.backend_name(), "csr");
        assert_same_adjacency(&g, &decoded);
    }

    /// Weights stay raw in a varint file, so they come back bit for bit
    /// (negative and fractional values included).
    #[test]
    fn weighted_compressed_store_preserves_weight_bits() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(0, 1, 1.5)
            .add_weighted_edge(0, 2, -0.25)
            .add_weighted_edge(2, 0, 3.0);
        let g = b.build();
        let decoded = decode_v2(&encode(&g)).expect("decode");
        assert!(decoded.is_weighted());
        for u in g.vertices() {
            let bits = |ws: Option<&[f32]>| -> Option<Vec<u32>> {
                ws.map(|ws| ws.iter().map(|w| w.to_bits()).collect())
            };
            assert_eq!(bits(g.out_weights(u)), bits(decoded.out_weights(u)), "{u}");
        }
    }

    /// Both ways into a varint file — [`io::read_binary`] over bytes and
    /// [`io::open_store`] over a path — give the in-RAM `csr` backend
    /// holding the written graph.
    #[test]
    fn varint_v2_file_round_trips_through_both_paths() {
        let g = sample();
        let bytes = encode(&g);
        let eager = io::read_binary(&bytes[..]).expect("read_binary");
        assert_same_adjacency(&g, &eager);

        let path = std::env::temp_dir().join(format!(
            "snaple-varint-both-paths-{}.snplg",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).expect("write");
        let opened = io::open_store(&path).expect("open_store");
        std::fs::remove_file(&path).ok();
        assert_eq!(opened.backend_name(), "csr");
        assert!(opened.check_fault().is_ok());
        assert_same_adjacency(&g, opened.as_ref());
    }

    #[test]
    fn corrupt_varint_files_are_typed_errors() {
        let bytes = encode(&sample());
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            assert!(decode_v2(&bad).is_err(), "flip at {pos} went unnoticed");
        }
    }

    /// A checksum-passing but malformed stream is a typed error from the
    /// eager decoder, never a panic or a silently short adjacency.
    #[test]
    fn malformed_stream_faults_instead_of_panicking() {
        let g = sample();
        let n = g.num_vertices();
        let (mut stream, index) = encode_stream(&g).expect("sorted rows");
        // Blow up a gap so a decoded id lands out of range.
        stream[0] = 0xFF;
        stream[1] = 0x7F;
        let mut offsets = vec![0usize];
        for u in g.vertices() {
            offsets.push(offsets[offsets.len() - 1] + g.out_degree(u));
        }
        assert!(matches!(
            decode_all_blocks(&stream, &index, &offsets, n),
            Err(GraphError::VertexOutOfRange { vertex: 16383, .. })
        ));
        // A stream shorter than its block index records is corrupt.
        stream.pop();
        assert!(matches!(
            decode_all_blocks(&stream, &index, &offsets, n),
            Err(GraphError::Corrupt(_))
        ));
    }
}
