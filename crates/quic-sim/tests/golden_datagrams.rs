//! Golden datagrams: the exact bytes of every datagram the reference
//! client and the simulated servers exchange in a handful of conversations
//! — both handshake shapes, a 1-RTT exchange that runs into
//! `STREAM_DATA_BLOCKED`, Retry with and without the Issue-3 rebind,
//! replies after a protocol-violation close, and stateless resets across
//! server resets.  The wire codec may change how it builds and parses
//! packets, but never a byte of what it puts on the wire.
//!
//! Each line is `> request` or `< response abstract-name`, in hex.

use prognosis_quic_sim::client::ReferenceQuicClient;
use prognosis_quic_sim::profile::ImplementationProfile;
use prognosis_quic_sim::server::QuicServer;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Sends each input and records the request and every response datagram,
/// absorbing the responses as an adapter would.
fn exchange(
    server: &mut QuicServer,
    client: &mut ReferenceQuicClient,
    inputs: &[&str],
    lines: &mut Vec<String>,
) {
    for input in inputs {
        client.concretize(input).unwrap();
        lines.push(format!("> {}", hex(client.request_datagram())));
        let responses = server.handle_datagram(client.request_datagram(), client.source_port());
        for datagram in responses.iter() {
            let name = client
                .absorb(datagram, |packet| packet.abstract_name())
                .unwrap_or_default();
            lines.push(format!("< {} {name}", hex(datagram)));
        }
    }
}

fn assert_pinned(lines: &[String], pinned: &[&str]) {
    assert_eq!(lines.len(), pinned.len(), "{lines:#?}");
    for (i, (line, pinned)) in lines.iter().zip(pinned).enumerate() {
        assert_eq!(line, pinned, "datagram line {i}");
    }
}

const HANDSHAKE: [&str; 2] = ["INITIAL(?,?)[CRYPTO]", "HANDSHAKE(?,?)[ACK,CRYPTO]"];
const VIOLATION: [&str; 2] = ["INITIAL(?,?)[CRYPTO]", "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]"];

#[test]
fn google_handshake_datagrams_are_pinned() {
    let mut lines = Vec::new();
    let mut server = QuicServer::new(ImplementationProfile::google(), 1);
    let mut client = ReferenceQuicClient::new(7, 40_000);
    exchange(&mut server, &mut client, &HANDSHAKE, &mut lines);
    assert_pinned(&lines, GOOGLE_HANDSHAKE);
}

#[test]
fn quiche_handshake_datagrams_are_pinned() {
    let mut lines = Vec::new();
    let mut server = QuicServer::new(ImplementationProfile::quiche(), 1);
    let mut client = ReferenceQuicClient::new(8, 40_001);
    exchange(&mut server, &mut client, &HANDSHAKE, &mut lines);
    assert_pinned(&lines, QUICHE_HANDSHAKE);
}

#[test]
fn one_rtt_exchange_into_stream_data_blocked_is_pinned() {
    let mut lines = Vec::new();
    let mut server = QuicServer::new(ImplementationProfile::google(), 1);
    let mut client = ReferenceQuicClient::new(11, 40_004);
    exchange(&mut server, &mut client, &HANDSHAKE, &mut lines);
    exchange(
        &mut server,
        &mut client,
        &[
            "SHORT(?,?)[ACK,STREAM]",
            "SHORT(?,?)[ACK,STREAM]",
            "SHORT(?,?)[ACK,STREAM]",
            "SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]",
            "SHORT(?,?)[ACK,STREAM]",
            "SHORT(?,?)[PING,CONNECTION_CLOSE]",
        ],
        &mut lines,
    );
    assert!(lines
        .iter()
        .any(|l| l.ends_with("SHORT(?,?)[ACK,STREAM_DATA_BLOCKED]")));
    assert_pinned(&lines, GOOGLE_ONE_RTT);
}

#[test]
fn retry_datagrams_are_pinned() {
    let mut lines = Vec::new();
    let mut server = QuicServer::new(ImplementationProfile::quiche().with_retry(), 1);
    let mut client = ReferenceQuicClient::new(16, 40_009);
    exchange(
        &mut server,
        &mut client,
        &[
            "INITIAL(?,?)[CRYPTO]",
            "INITIAL(?,?)[CRYPTO]",
            "HANDSHAKE(?,?)[ACK,CRYPTO]",
        ],
        &mut lines,
    );
    assert_pinned(&lines, RETRY);
}

#[test]
fn retry_with_the_issue_3_rebind_is_pinned() {
    let mut lines = Vec::new();
    let mut server = QuicServer::new(ImplementationProfile::quiche().with_retry(), 1);
    let mut client = ReferenceQuicClient::new(15, 40_008);
    client.rebind_on_retry = true;
    exchange(
        &mut server,
        &mut client,
        &[
            "INITIAL(?,?)[CRYPTO]",
            "INITIAL(?,?)[CRYPTO]",
            "HANDSHAKE(?,?)[ACK,CRYPTO]",
        ],
        &mut lines,
    );
    assert_pinned(&lines, RETRY_REBIND);
}

#[test]
fn replies_after_a_protocol_violation_close_are_pinned() {
    let mut lines = Vec::new();
    let mut server = QuicServer::new(ImplementationProfile::quiche(), 5);
    let mut client = ReferenceQuicClient::new(14, 40_007);
    exchange(&mut server, &mut client, &VIOLATION, &mut lines);
    exchange(
        &mut server,
        &mut client,
        &["SHORT(?,?)[ACK,STREAM]", "HANDSHAKE(?,?)[ACK,CRYPTO]"],
        &mut lines,
    );
    let mut server = QuicServer::new(ImplementationProfile::google(), 5);
    client.reset();
    exchange(&mut server, &mut client, &VIOLATION, &mut lines);
    exchange(
        &mut server,
        &mut client,
        &["SHORT(?,?)[ACK,STREAM]"],
        &mut lines,
    );
    assert_pinned(&lines, POST_CLOSE);
}

#[test]
fn stateless_resets_across_server_resets_are_pinned() {
    let mut lines = Vec::new();
    let mut server = QuicServer::new(ImplementationProfile::mvfst(), 42);
    let mut client = ReferenceQuicClient::new(13, 40_006);
    for _ in 0..3 {
        exchange(&mut server, &mut client, &VIOLATION, &mut lines);
        exchange(
            &mut server,
            &mut client,
            &["SHORT(?,?)[ACK,STREAM]"; 8],
            &mut lines,
        );
        server.reset();
        client.reset();
    }
    assert_pinned(&lines, STATELESS_RESET);
}

const GOOGLE_HANDSHAKE: &[&str] = &[
    "> c0ff00001d086ab229976e3c1e4e08816a78e459731d9b001700000000d4a529f1474eb8607d2e4e55615630f19f3059",
    "< c0ff00001d08816a78e459731d9b08bd58c41771e14c8a001c00000000d0a525922b21dd027a665446684872d50cff451eb0e3b517 INITIAL(?,?)[ACK,CRYPTO]",
    "< e0ff00001d08816a78e459731d9b08bd58c41771e14c8a1f0000000073cac4d1832e16d981f743b469c278aa4d8e9e3c601ad37f4955a9 HANDSHAKE(?,?)[CRYPTO]",
    "< e0ff00001d08816a78e459731d9b08bd58c41771e14c8a1f00000001f828231e91fa0dfc6a1632a595454f9950289ffd106ae39fd46d86 HANDSHAKE(?,?)[CRYPTO]",
    "< 4008816a78e459731d9b00000000d112c7315c198c125095f5240bd811d71c19 SHORT(?,?)[STREAM]",
    "> e0ff00001d086ab229976e3c1e4e08816a78e459731d9b1f0000000077cbd0b4ed4b64af92ef4fb52ad32db8418e84266711c4bd8ef3b0",
    "< 4008816a78e459731d9b0000000111882f851387e4711fded45121e509c8b8acd3bba7 SHORT(?,?)[CRYPTO]",
    "< 4008816a78e459731d9b000000022ba744c951 SHORT(?,?)[HANDSHAKE_DONE]",
];

const QUICHE_HANDSHAKE: &[&str] = &[
    "> c0ff00001d08a57a7e7c66f68140084ea22f0f51b982950017000000007da9c099887b89f236991ccc26e3cbd3512f88",
    "< c0ff00001d084ea22f0f51b9829508bd58c41771e14c8a001c0000000079a9ccfae414ec9031d106df2ffd89e0ca1d7f9e6fa06f8e INITIAL(?,?)[ACK,CRYPTO]",
    "< e0ff00001d084ea22f0f51b9829508bd58c41771e14c8a1f0000000070a5b071da9dc44585505c3e3d2e9822e6cfdf31db9fcde406474a HANDSHAKE(?,?)[CRYPTO]",
    "< e0ff00001d084ea22f0f51b9829508bd58c41771e14c8a1f000000016f879f7a095488bcde817328b602f2f11b992dd246cf07d39616ec HANDSHAKE(?,?)[CRYPTO]",
    "> e0ff00001d08a57a7e7c66f68140084ea22f0f51b982951f0000000074a4a414b4f8b6339648503f7e3fcd30eacfc52bdc94da40a0449f",
    "< e0ff00001d084ea22f0f51b9829508bd58c41771e14c8a0d000000020d8646b8bb8a23e4da HANDSHAKE(?,?)[ACK]",
    "< 40084ea22f0f51b9829500000000251db3f63bed8038e3a267b9c323435b6e84f3237d47d4f83eb1b21d9457c83c94 SHORT(?,?)[CRYPTO,HANDSHAKE_DONE,STREAM]",
];

const GOOGLE_ONE_RTT: &[&str] = &[
    "> c0ff00001d0866b8451ba1f45735088d60146896bb54e00017000000008820ba1861b8ee196de672f49b87fb42772cb3",
    "< c0ff00001d088d60146896bb54e008bd58c41771e14c8a001c000000008c20b67b0dd78b7b6aae68e79299b9d39303e7d8b8ef24a9 INITIAL(?,?)[ACK,CRYPTO]",
    "< e0ff00001d088d60146896bb54e008bd58c41771e14c8a1f000000000d084acf4e91451eea62fad3fa2c876e7a39f4925f595859472619 HANDSHAKE(?,?)[CRYPTO]",
    "< e0ff00001d088d60146896bb54e008bd58c41771e14c8a1f0000000194d059357ab751f8acebf00b769a04f2d1654c5cc81361f76c4fe6 HANDSHAKE(?,?)[CRYPTO]",
    "< 40088d60146896bb54e000000000d87bad8350b8602df1c9cf86fa505c29a558 SHORT(?,?)[STREAM]",
    "> e0ff00001d0866b8451ba1f45735088d60146896bb54e01f0000000009095eaa20f43768f97af6d2b93dd27c7639ee8858524f61487d0b",
    "< 40088d60146896bb54e000000001bac8ec9eb3db11b604808ad33f0f82502c4dc24eb0 SHORT(?,?)[CRYPTO]",
    "< 40088d60146896bb54e0000000024bc7b47ac5 SHORT(?,?)[HANDSHAKE_DONE]",
    "> 400866b8451ba1f4573500000000d478ad8935d71241ba95da96ff40fb91affa8536184713ae3d89d86d269bff2a2f13e695a9ee69e6736ebaf524fae87ff77aeee13891386be35a34e7cf7e0a",
    "< 40088d60146896bb54e00000000360636495daba2527aa26fb9205a75ed2a3015a1948e91c4b24ea8a8f45b4992763fd3bde478d58ef403689144a2deb8691cd72eeec07de0ac2c2ecf8b8f6c7c24b23b0bb587b4b732ffb172795d3db3186564d0205eb7638bd109c9e5d663a8225fff41e115566695aa3e3ed70e8fd74e9f6 SHORT(?,?)[ACK,STREAM]",
    "> 400866b8451ba1f4573500000001becbe2edd6a662ed599fd6d6271d9844299e7e31175d663927e9459f86edb18e38d4b2a9278a8a14c5cf0632f7cc70892a0c84d32bcd7de70c4d4969878ea5",
    "< 40088d60146896bb54e000000004d4dfeaf08f2707809e4ffa6ae9e232c20fb97ba62cb40f3fa5f62d5cb937262a4e044294e2a1b89b77fdc7c0edda1359ed100def346b1f5c146fcf71b8eae1091f3bc1 SHORT(?,?)[ACK,STREAM,STREAM_DATA_BLOCKED]",
    "> 400866b8451ba1f4573500000002578d851698f64a361a4e93e95cc03172be1c4a74765bdd78f1e450619fb2ad4b9336728a1f576b1bf87447b0e66acf0b12a34325347db5c3653e3951523b0e42",
    "< 40088d60146896bb54e000000005a0988294a7a6aa5720e412ae SHORT(?,?)[ACK,STREAM_DATA_BLOCKED]",
    "> 400866b8451ba1f457350000000360666495daa46707fb43c8cc0ff664eb",
    "< 40088d60146896bb54e00000000650ab2968a87f1a8e10d19fa21af71e10daf51953e9257da2d7e8d085b043119620db76e1090fa6d7155d062b1b4d654ad07e2119dca196614fc47989147ca4ec2c3607d049c4f06fbed43607a7bf9585762b740dbb04114cc9c40a26eff53d8c08f2c6b53d0f7d0efb229e843836cd70f69f3d27ba01f4ff1e2ef7af0030228dff466f6e1281c79e9cb197e5b02af478a7a1d99e6a087e8da6ae3e10e77a5dd3846eb720b7 SHORT(?,?)[ACK,STREAM]",
    "> 400866b8451ba1f4573500000004d4d8eaf08f2706806c4ff969eae131c10cba78a52fb70c3ca6f52e5fba3425294d074197e1a2bb9874fec4c3eed9105aee130eec37681c5f176ccc72d8946707",
    "< 40088d60146896bb54e000000007f706b1338880926fb1e3dc29 SHORT(?,?)[ACK,STREAM_DATA_BLOCKED]",
    "> 400866b8451ba1f4573500000005a3878298c4dfc23210dce2c5142ec30337ad8d86",
];

const RETRY: &[&str] = &[
    "> c0ff00001d08bd6ea665b92e729e0856b6f7168e61714b001700000000852056f9abf76841ed50d1a368f9a975830ea8",
    "< f0ff00001d0856b6f7168e61714b08bd58c41771e14c8a1c746f6b656e2d34303030392d62643538633431373731653134633861 RETRY(?,?)[]",
    "> c0ff00001d08bd6ea665b92e729e0856b6f7168e61714b1c746f6b656e2d34303030392d6264353863343137373165313463386117000000011669f482985a1a7634fea47c24f6ab738a0cc6",
    "< c0ff00001d0856b6f7168e61714b08bd58c41771e14c8a001c0000000081215a9ac7980d23ea18cbb061e7ebe5e6c22f0ce51df134 INITIAL(?,?)[ACK,CRYPTO]",
    "< e0ff00001d0856b6f7168e61714b08bd58c41771e14c8a1f00000000ea37cd0b585d6c69a391c4da9a2e5ebeca8248cbb81ad849de0341 HANDSHAKE(?,?)[CRYPTO]",
    "< e0ff00001d0856b6f7168e61714b08bd58c41771e14c8a1f00000001dc914ab4dd1edb478fb58c8d12cbd79710556cef73fdf8d4fcfdf6 HANDSHAKE(?,?)[CRYPTO]",
    "> e0ff00001d08bd6ea665b92e729e0856b6f7168e61714b1f00000000ee36d96e36381e1fb089c8dbd93f0bacc68252d1bf11cff72038e5",
    "< e0ff00001d0856b6f7168e61714b08bd58c41771e14c8a0d00000002d126bec4205e52d35a HANDSHAKE(?,?)[ACK]",
    "< 400856b6f7168e61714b0000000028ec2e9ad4e3cb073ba87610ac332fa7c9cfea8712ee17b83afedc582269876b56 SHORT(?,?)[CRYPTO,HANDSHAKE_DONE,STREAM]",
];

const RETRY_REBIND: &[&str] = &[
    "> c0ff00001d0862be619fe4b350e408896630ecd3fc533100170000000022b34a4b7551f823b7edc76f243fb3bc2359d1",
    "< f0ff00001d08896630ecd3fc533108bd58c41771e14c8a1c746f6b656e2d34303030382d62643538633431373731653134633861 RETRY(?,?)[]",
    "> c0ff00001d0862be619fe4b350e408896630ecd3fc53311c746f6b656e2d34303030382d626435386334313737316531346338611700000001b9272c1c31c868c354107d84572cf9ab699eda",
    "> e0ff00001d0862be619fe4b350e408896630ecd3fc53311f0000000082b3c68ce24e6fa960982674c554b884e8460b9fdb3fb1a2207ae3",
];

const POST_CLOSE: &[&str] = &[
    "> c0ff00001d0823ff48ba81b221e908c82719c9b6fd223c00170000000055053123e915edfd4e1cc1ddd4526d4d6d7083",
    "< c0ff00001d08c82719c9b6fd223c08bd58c41771e14c8a001c0000000051053d40857a889f4954dbcedd4c2f02dc50c95144536c6f INITIAL(?,?)[ACK,CRYPTO]",
    "< e0ff00001d08c82719c9b6fd223c08bd58c41771e14c8a1f000000008de0c97e6ccecdfb9198a9f758db241ffaa8c5f6d49123781b6f34 HANDSHAKE(?,?)[CRYPTO]",
    "< e0ff00001d08c82719c9b6fd223c08bd58c41771e14c8a1f000000019e9c1e6fcd8fa38a46112302f0fb54c0cefd420e9eb7a4aa9c46fe HANDSHAKE(?,?)[CRYPTO]",
    "> e0ff00001d0823ff48ba81b221e908c82719c9b6fd223c0e0000000089e1dd1b02b3d02736ac",
    "< e0ff00001d08c82719c9b6fd223c08bd58c41771e14c8a2b000000027be64717eea83e1fa077f4369c07e78ecac7971974487a4f5ce62b2324ddcf2965ebae2a054b33 HANDSHAKE(?,?)[ACK,CONNECTION_CLOSE]",
    "> 400823ff48ba81b221e90000000043f1246c38e5c494fcedccbce2f999b97911b640cda78a26e8f8f860e36a0179d36e6874ba433ef3c655482149974bbeac1938845f695582c9164c84f63ea6",
    "< c0ff00001d08c82719c9b6fd223c08bd58c41771e14c8a001200000001fa91d7e77f5d4a627ddf8f02e97f INITIAL(?,?)[CONNECTION_CLOSE]",
    "> e0ff00001d0823ff48ba81b221e908c82719c9b6fd223c1f000000019a8a0a0ca8fbd7ec43142906eaea54c0cefd420e9eb7a45b984344",
    "< c0ff00001d08c82719c9b6fd223c08bd58c41771e14c8a0012000000026232c13ba066335b894dde521e9d INITIAL(?,?)[CONNECTION_CLOSE]",
    "> c0ff00001d089453259338f88134087f8b74e00fb782e100170000000008f3e67dabf40bea8ef426ecf72b516cb65207",
    "< c0ff00001d087f8b74e00fb782e108bd58c41771e14c8a001c000000000cf3ea1ec79b6e8889bc3cfffe351329a9af37595763886e INITIAL(?,?)[ACK,CRYPTO]",
    "< e0ff00001d087f8b74e00fb782e108bd58c41771e14c8a1f00000000ae8619c35aeb057c2afd8a2794ce6193a0987ac7cb3e572c8cd888 HANDSHAKE(?,?)[CRYPTO]",
    "< e0ff00001d087f8b74e00fb782e108bd58c41771e14c8a1f00000001492b2856b92095537e5f813eab4e0a397bab4a10ec3428b669acc6 HANDSHAKE(?,?)[CRYPTO]",
    "< 40087f8b74e00fb782e1000000000656ffcaa05627eca7484518a97660b5202f SHORT(?,?)[STREAM]",
    "> e0ff00001d089453259338f88134087f8b74e00fb782e10e00000000aa870da63496fa347d11",
    "< e0ff00001d087f8b74e00fb782e108bd58c41771e14c8a2b0000000288c199dcd0def5a5a716c979583bc4133ccdbb6496f14e9ed08ba4daf73d52c30a56b53c887ee5 HANDSHAKE(?,?)[ACK,CONNECTION_CLOSE]",
    "< 40087f8b74e00fb782e1000000018f1ab31c28fcac3a77a007c436171c7979ab11d2d2d28b1b607dc109d2719bb3b2f6c7da0255 SHORT(?,?)[CONNECTION_CLOSE,STREAM]",
    "> 40089453259338f88134000000000a56ffc0c5395580ec145008ac66143f00825a6e9cfae3e63ff00e75af23e05c8109beffa969312a18e3b545aa5d2cf65e8c0cfd40e38f8221efb14d85725d",
    "< 40087f8b74e00fb782e100000002531ea49af8537ac68c234dd9c408 SHORT(?,?)[CONNECTION_CLOSE]",
];

const STATELESS_RESET: &[&str] = &[
    "> c0ff00001d08e03d73dd46b0f79c080be522ae71fff44900170000000046172f529ee743edbe81909e642325b21bc5a6",
    "< c0ff00001d080be522ae71fff44908bd58c41771e14c8a001c0000000042172331f288268fb9c98a8d6d3d67fbe8b285f4a45e097b INITIAL(?,?)[ACK,CRYPTO]",
    "< e0ff00001d080be522ae71fff44908bd58c41771e14c8a1f000000005b08a0cf887f51eb787212d48a811d1b7cb5789be9b1d451e9ecaa HANDSHAKE(?,?)[CRYPTO]",
    "< e0ff00001d080be522ae71fff44908bd58c41771e14c8a1f0000000141386baa87ca27b29d250e6aba9e9ad84323de6edcdc95cf37a05b HANDSHAKE(?,?)[CRYPTO]",
    "> e0ff00001d08e03d73dd46b0f79c080be522ae71fff4490e000000005f09b4aae602c5a761a4",
    "< e0ff00001d080be522ae71fff44908bd58c41771e14c8a2b0000000298592fc5a6653d59f3892f1e70b367584f216afd0f7d234bf24dc9205a27fc16295a29bda3e240 HANDSHAKE(?,?)[ACK,CONNECTION_CLOSE]",
    "> 4008e03d73dd46b0f79c00000000db5c639b9cd3b7badd16b6b642e0b6c80c2d64aa4d500b7ae77b1f93515b198049d1dcb7695aa7e8d3507143438f5cfffcea1b5769a7340da52148b2ae8c30",
    "< 7f080be522ae71fff4498e32c48dd880c91e8e32c48dd880c91e RESET(?,?)[]",
    "> 4008e03d73dd46b0f79c0000000156c310245efc06ae036918d04137cd0c0a66bf2dfdc564160727466bdf3e13e5f0363e56f3012233c9e6f6afbaffee0161488c8926029aff6c76efa140ba19",
    "< 7f080be522ae71fff4498e32c48dd880c91e8e32c48dd880c91e RESET(?,?)[]",
    "> 4008e03d73dd46b0f79c00000002d87779d864e20a5d88d11075109eba9fbfd17f4425c22e5a17b0693b2e8188fa842eb5bb3ad5a9a478645ab36e49b43f060aea66eb889b4ee2b6599a73a91876",
    "> 4008e03d73dd46b0f79c00000003fc372ff4f0d0a2052ae762f492af4f298b35ee175d0dd009056e06419dea4c0530ef7274b187d55ff543a73da4755e290e73096dbda892033af328b7b17c70cc",
    "< 7f080be522ae71fff4498e32c48dd880c91e8e32c48dd880c91e RESET(?,?)[]",
    "> 4008e03d73dd46b0f79c000000045f45c5f53848f0914baf372fb175bd6cdf930654366219eef9b2ccb7b4320e6a321f67818a3e1df494d028ad099c245dec14d43d734e114be4adf4a0e2049380",
    "< 7f080be522ae71fff4498e32c48dd880c91e8e32c48dd880c91e RESET(?,?)[]",
    "> 4008e03d73dd46b0f79c00000005aa05a1605b16ee0cd4274c2678c4ac1051f7435fea39ae77a8bad44c7181318e2a2b7f8ce04bb41e5410196ec47cc61c53ed6c19f2eb650144e007ab52d15848",
    "< 7f080be522ae71fff4498e32c48dd880c91e8e32c48dd880c91e RESET(?,?)[]",
    "> 4008e03d73dd46b0f79c00000006537ea0a11ea13e06118db493e69fc693e2e39d539c1eecb2d70cd6745c2f45b1d64122ee085a4675c51532cb12a996d6733b24fa17f596f9e641df7cef5280ce",
    "< 7f080be522ae71fff4498e32c48dd880c91e8e32c48dd880c91e RESET(?,?)[]",
    "> 4008e03d73dd46b0f79c0000000702eba2a3f5bf1c8a8c6001c9d6501f5afc55790c323072bac52b510d2f49d5fe7a55a3ef9587b70c185fc4ab694eabcb89ce6eaebd38597a01f9ae87f43b3efd",
    "< 7f080be522ae71fff4498e32c48dd880c91e8e32c48dd880c91e RESET(?,?)[]",
    "> c0ff00001d08d5120cb65df9f039083eca5dc56ab6f3ec0017000000001270fe69c3e920b5daec47952c5059431c01a0",
    "< c0ff00001d083eca5dc56ab6f3ec08bd58c41771e14c8a001c000000001670f20aaf8645d7dda45d86254e1b71d665fedcbec05583 INITIAL(?,?)[ACK,CRYPTO]",
    "< e0ff00001d083eca5dc56ab6f3ec08bd58c41771e14c8a1f0000000012f3326b585e6ae57934b32c53babd4b81ee3181eb30bbbaeac75e HANDSHAKE(?,?)[CRYPTO]",
    "< e0ff00001d083eca5dc56ab6f3ec08bd58c41771e14c8a1f000000019ae8b96fadd26cd0efcd10d8027b1257cf52a0c18be101bfdd92ce HANDSHAKE(?,?)[CRYPTO]",
    "> e0ff00001d08d5120cb65df9f039083eca5dc56ab6f3ec0e0000000016f2260e362393f53da5",
    "< e0ff00001d083eca5dc56ab6f3ec08bd58c41771e14c8a2b00000002b4002176e1675caf370fcc43e210f36634472246669b0fd17c7fd8fad714dbfd34b17703c2ea85 HANDSHAKE(?,?)[ACK,CONNECTION_CLOSE]",
    "> 4008d5120cb65df9f03900000000fad0e9c6b2d9eca6d3c86243736f06f0e631575658547db8fa21f74681149eb580cb25b24382a0ae559fe2dea13d6d968672ba92d6fa055fa64361688b646f",
    "< 7f083eca5dc56ab6f3ec67b6dac20cf798a067b6dac20cf798a0 RESET(?,?)[]",
    "> 4008d5120cb65df9f039000000015a2a4925bd1070779d672304ddd804f3a2314bb7b8c8a61bd708ae624228ebfb8d6b4fe4656c81a8964fa469416d27f744d15b79d719b557d5e88f07c780a0",
    "< 7f083eca5dc56ab6f3ec67b6dac20cf798a067b6dac20cf798a0 RESET(?,?)[]",
    "> 4008d5120cb65df9f03900000002ebb332833bf419a0c35c9b14e6fdba90272d1802cec662181bb42734ea194a7165f4e7e8c0502a1b554fd1f0a1527b24987f0339e18c47e08548c31f25a1ff04",
    "< 7f083eca5dc56ab6f3ec67b6dac20cf798a067b6dac20cf798a0 RESET(?,?)[]",
    "> 4008d5120cb65df9f03900000003a3bdfd184a9713ceec002fb3401e43f333d265733df1ea78588f93598d03642e7a82a8b41821f7af240d8b4ee78048644e83a2104928f60f25a74e4bdb9267d5",
    "< 7f083eca5dc56ab6f3ec67b6dac20cf798a067b6dac20cf798a0 RESET(?,?)[]",
    "> 4008d5120cb65df9f039000000049838ac86b017ebe3dec02831449b6a888423dec4ec8b6b4714ee74469c7fafeecc56ae45af608d22ff0685cdd645473f55943975287066bc3d045dc7101dfbaf",
    "< 7f083eca5dc56ab6f3ec67b6dac20cf798a067b6dac20cf798a0 RESET(?,?)[]",
    "> 4008d5120cb65df9f03900000005dcd5d07e092899660aa860bda10ac16e2c72ddd8256650062b7ec0a43a4571fa041c823932c9cb94f50b7101923e1471f0c46b38b5cb9c65ddd64689a77328af",
    "> 4008d5120cb65df9f0390000000657c75c2888ee0a7c12e8f3bfaa72d8864f68e66938248f5073e88034075c87f90c956c3080adcf1226bb5abb239d78af70072de6a0fd606290d08be7d4416623",
    "< 7f083eca5dc56ab6f3ec67b6dac20cf798a067b6dac20cf798a0 RESET(?,?)[]",
    "> 4008d5120cb65df9f03900000007830e1eaed8673813b1ba89310186c4dfc307b6a9873a791ef2af436fd120e435fbbc55ac7d4367b6e26a8d03742a42f7d294507cf7db4b39a28da17aa37fed06",
    "> c0ff00001d086ef409690b291dc508852c581a3c661e100017000000008ba4364f5a0c5c7b8adc3272e685729f7edd02",
    "< c0ff00001d08852c581a3c661e1008bd58c41771e14c8a001c000000008fa43a2c366339198d942861ef9b30feeb8b4c6ea3f1c8b0 INITIAL(?,?)[ACK,CRYPTO]",
    "< e0ff00001d08852c581a3c661e1008bd58c41771e14c8a1f00000000b77f5fa8a7564a89aee742aa94276c9f89bfea6e4a4272eee51517 HANDSHAKE(?,?)[CRYPTO]",
    "< e0ff00001d08852c581a3c661e1008bd58c41771e14c8a1f00000001a2db00f27f2b524d521ca3e2056a0a3a504f5f5664fa7f672f1944 HANDSHAKE(?,?)[CRYPTO]",
    "> e0ff00001d086ef409690b291dc508852c581a3c661e100e00000000b37e4bcdc92b0e54a2c2",
    "< e0ff00001d08852c581a3c661e1008bd58c41771e14c8a2b000000028fd51f35736b97bc3f42956977bd14e5d9395d378f022d822eeedbc16478bc6510ae6d78d561ad HANDSHAKE(?,?)[ACK,CONNECTION_CLOSE]",
    "> 40086ef409690b291dc50000000008cc82d954cf40d9f8fc67cc57c329d02ca6fe4d2cda22ddea394cd31f841821196a498e5bd04802ffc35806e1708473ad52850ba00dac79213fd1114c8c55",
    "< 7f08852c581a3c661e10fab0ca965674fd72fab0ca965674fd72 RESET(?,?)[]",
    "> 40086ef409690b291dc500000001e8ae0ae8ec99afd69a4311edc83f785029d335035b00d48b7faba569f9642909fc01a7a4dfd45d69bbaeec0c2d9480c19e4d08efbcb663b73f9375cfa6192f",
    "< 7f08852c581a3c661e10fab0ca965674fd72fab0ca965674fd72 RESET(?,?)[]",
    "> 40086ef409690b291dc50000000281c46b48f37b34f11161d6011b2793115bbe2a197a60fcfa377af13f1cd4bbad62bbd7c7d8068f381b9c63a07d17f3f6d16b88b0d57ae5ad9507aa0e702ce088",
    "< 7f08852c581a3c661e10fab0ca965674fd72fab0ca965674fd72 RESET(?,?)[]",
    "> 40086ef409690b291dc5000000031753fca05dc61a36997a275dba8cf84e78f066697c07e93bb402a400d699547c6909e8bc6ec61b672d752330ee31c7faeb7569961f5a4dd1b1a8f0ab176a5daf",
    "< 7f08852c581a3c661e10fab0ca965674fd72fab0ca965674fd72 RESET(?,?)[]",
    "> 40086ef409690b291dc500000004bdbd3bc66c723ab2b501b89f5732f4b3196411191cc77c5c4752a68fc9b06f0de2e3121b35341f0ebcbecb03bd829db372b29c38075ecb94190736db447b787f",
    "< 7f08852c581a3c661e10fab0ca965674fd72fab0ca965674fd72 RESET(?,?)[]",
    "> 40086ef409690b291dc500000005afb338e3f28f317e83404221982bee04a42c2d41428bf8df0ce36d6084e552212727100447dfeac1d91a98e9f2f3d0fcb4154eaadadf87bea018fd8d83c40246",
    "> 40086ef409690b291dc500000006a20e7007ba709b3b03bea8bcda825cdd78d1ad36fb782b16c33076f74b320972098c2232adf981aa2882cec70c20d9f5582eb9caa92470fced5e17ae36aebb90",
    "< 7f08852c581a3c661e10fab0ca965674fd72fab0ca965674fd72 RESET(?,?)[]",
    "> 40086ef409690b291dc5000000070deeb3692a075db6697a2620b21150ef31ed591f733968c38bd034f315f0c12d27f76cbdbf098fc966b5739449cf14a53d965214345e3f5eb1a661ee347c9424",
];
