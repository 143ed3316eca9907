(* The tagged-probe / direct-address hash table runtime: layout selection
   and fallback, duplicate-chain order across growth, tag false-positive
   bounds, probe-cost calibration, zeroing charges, the stale-address
   guard, and the grow-leak regression. *)

open Qcomp_vm
open Qcomp_runtime
module Hashes = Qcomp_support.Hashes

let check = Alcotest.check
let fresh_mem () = Memory.create (1 lsl 24)

(* Creation takes the profile as an explicit argument now (no
   process-wide toggle); [with_profile] hands the callback a [create]
   preconfigured with it. *)
let with_profile p f =
  f (fun m ~payload_size ~capacity_hint ->
      Htable.create m ~profile:p ~payload_size ~capacity_hint ())

let unhash =
  match Hashes.unhash64_opt with
  | Some f -> f
  | None -> fun _ -> Alcotest.fail "unhash64 unavailable for these seeds"

(* a spread 64-bit value whose unhash is pseudorandom (combined hashes
   never unhash to anything dense) *)
let scrambled i = Hashes.combine (Hashes.hash64 (Int64.of_int i)) 0x5BD1E995L
let scrambled_key k = scrambled (Int64.to_int k)
let dense_key k = Hashes.hash64 k

let mode_cases =
  [
    Alcotest.test_case "unhash64 inverts hash64" `Quick (fun () ->
        List.iter
          (fun x ->
            check Alcotest.int64 "roundtrip" x (unhash (Hashes.hash64 x)))
          [ 0L; 1L; -1L; 42L; Int64.min_int; Int64.max_int; 0xDEADBEEFL ];
        for i = 0 to 999 do
          let x = Hashes.hash64 (Int64.of_int (i * 7919)) in
          check Alcotest.int64 "roundtrip rand" x (unhash (Hashes.hash64 x))
        done);
    Alcotest.test_case "dense integer keys select direct addressing" `Quick
      (fun () ->
        let m = fresh_mem () in
        let ht, _ = Htable.create m ~payload_size:8 ~capacity_hint:16 () in
        for k = 0 to 999 do
          let p, _ = Htable.insert m ht (Hashes.hash64 (Int64.of_int k)) in
          Memory.store64 m p (Int64.of_int (k * 3))
        done;
        check Alcotest.bool "direct" true (Htable.mode m ht = `Direct);
        check Alcotest.int "count" 1000 (Htable.count m ht);
        for k = 0 to 999 do
          let e, _ = Htable.lookup m ht (Hashes.hash64 (Int64.of_int k)) in
          check Alcotest.bool "found" true (e <> 0);
          check Alcotest.int64 "payload" (Int64.of_int (k * 3))
            (Memory.load64 m (e + 8))
        done;
        (* absent keys: in-range gaps and out-of-range both miss *)
        let e, c = Htable.lookup m ht (Hashes.hash64 123456789L) in
        check Alcotest.int "range miss" 0 e;
        check Alcotest.bool "range miss is cheap" true (c <= 3));
    Alcotest.test_case "sparse keys fall back to tagged mid-build" `Quick
      (fun () ->
        let m = fresh_mem () in
        let ht, _ = Htable.create m ~payload_size:8 ~capacity_hint:16 () in
        let keys =
          List.init 100 (fun k -> Int64.of_int k) @ [ 10_000_000L ]
        in
        List.iteri
          (fun i k ->
            let p, _ = Htable.insert m ht (Hashes.hash64 k) in
            Memory.store64 m p (Int64.of_int i))
          keys;
        check Alcotest.bool "tagged after outlier" true
          (Htable.mode m ht = `Tagged);
        List.iteri
          (fun i k ->
            let e, _ = Htable.lookup m ht (Hashes.hash64 k) in
            check Alcotest.bool "found" true (e <> 0);
            check Alcotest.int64 "payload survives migration"
              (Int64.of_int i)
              (Memory.load64 m (e + 8)))
          keys);
    Alcotest.test_case "direct/tagged/legacy lookup equivalence" `Quick
      (fun () ->
        (* same inserts under all three layouts must expose the same
           per-key payload multisets *)
        let keys =
          List.init 200 (fun k -> Int64.of_int (k mod 120))
          (* dups: 80 keys twice *)
        in
        let collect profile extra =
          with_profile profile (fun create ->
              let m = fresh_mem () in
              let ht, _ = create m ~payload_size:8 ~capacity_hint:4 in
              List.iteri
                (fun i k ->
                  let p, _ = Htable.insert m ht (Hashes.hash64 k) in
                  Memory.store64 m p (Int64.of_int i))
                (keys @ extra);
              List.map
                (fun k ->
                  let h = Hashes.hash64 k in
                  let rec walk e acc =
                    if e = 0 then List.rev acc
                    else
                      let v = Memory.load64 m (e + 8) in
                      let e', _ = Htable.next m ht e h in
                      walk e' (v :: acc)
                  in
                  let e, _ = Htable.lookup m ht h in
                  (k, walk e []))
                (List.sort_uniq compare (keys @ extra)))
        in
        let direct = collect Htable.Tagged [] in
        let fallback = collect Htable.Tagged [ 99_999_999L ] in
        let legacy = collect Htable.Legacy [] in
        List.iter2
          (fun (k, a) (k', b) ->
            check Alcotest.int64 "same key" k k';
            check Alcotest.(list int64) "direct = legacy chains" a b)
          direct legacy;
        List.iter
          (fun (k, chain) ->
            if not (Int64.equal k 99_999_999L) then
              check Alcotest.(list int64) "fallback chain matches"
                (List.assoc k direct) chain)
          fallback);
  ]

let chain_cases =
  let dup_chain_test name profile keys =
    Alcotest.test_case name `Quick (fun () ->
        with_profile profile (fun create ->
            let m = fresh_mem () in
            let ht, _ = create m ~payload_size:8 ~capacity_hint:4 in
            (* three duplicates per key, interleaved so several grows land
               mid-stream; payload encodes (key, dup ordinal) *)
            List.iter
              (fun d ->
                List.iter
                  (fun k ->
                    let p, _ = Htable.insert m ht (Hashes.hash64 k) in
                    Memory.store64 m p Int64.(add (mul k 10L) (of_int d)))
                  keys)
              [ 0; 1; 2 ];
            check Alcotest.bool "grew" true
              (Htable.capacity m ht > 16 || Htable.count m ht <= 11);
            List.iter
              (fun k ->
                let h = Hashes.hash64 k in
                let e1, _ = Htable.lookup m ht h in
                let e2, _ = Htable.next m ht e1 h in
                let e3, _ = Htable.next m ht e2 h in
                let e4, _ = Htable.next m ht e3 h in
                check Alcotest.int "chain exhausted" 0 e4;
                check
                  Alcotest.(list int64)
                  "insertion order preserved across grow"
                  Int64.[ mul k 10L; add (mul k 10L) 1L; add (mul k 10L) 2L ]
                  (List.map (fun e -> Memory.load64 m (e + 8)) [ e1; e2; e3 ]))
              keys))
  in
  [
    dup_chain_test "duplicate chain order across grow (tagged)" Htable.Tagged
      (List.init 60 (fun i -> Int64.of_int ((i * 131071) + 7)));
    dup_chain_test "duplicate chain order across grow (direct)" Htable.Tagged
      (List.init 60 (fun i -> Int64.of_int i));
    dup_chain_test "duplicate chain order across grow (legacy)" Htable.Legacy
      (List.init 60 (fun i -> Int64.of_int ((i * 131071) + 7)));
  ]

let probe_cases =
  [
    Alcotest.test_case "tag false-positive rate is bounded" `Quick (fun () ->
        let m = fresh_mem () in
        let ht, _ = Htable.create m ~payload_size:8 ~capacity_hint:16 () in
        for i = 0 to 4095 do
          ignore (Htable.insert m ht (scrambled i))
        done;
        check Alcotest.bool "tagged" true (Htable.mode m ht = `Tagged);
        let s0 = Htable.stats () in
        let misses = 4096 in
        for i = 0 to misses - 1 do
          let e, _ = Htable.lookup m ht (scrambled (1_000_000 + i)) in
          check Alcotest.int "absent" 0 e
        done;
        let s1 = Htable.stats () in
        let hits = s1.Htable.tag_hits - s0.Htable.tag_hits in
        let words = s1.Htable.tag_words - s0.Htable.tag_words in
        (* each scanned word covers 4 slots; a 16-bit tag false-positives
           at ~2^-16 per occupied slot, so even with the forced-nonzero
           fold the expected count here is < 1. Allow a loose 16. *)
        check Alcotest.bool
          (Printf.sprintf "few false positives (%d hits / %d words)" hits
             words)
          true
          (hits <= 16);
        (* the whole point: a miss probe costs ~7 cycles, not 12+ *)
        let cycles =
          s1.Htable.probe_cycles - s0.Htable.probe_cycles
        in
        check Alcotest.bool
          (Printf.sprintf "miss probes are cheap (%d cycles / %d probes)"
             cycles misses)
          true
          (cycles < 9 * misses));
    Alcotest.test_case "lookup/next probe cost monotone and calibrated"
      `Quick (fun () ->
        let walk_costs ?(force_tagged = false) profile k dups =
          with_profile profile (fun create ->
              let m = fresh_mem () in
              let ht, _ = create m ~payload_size:8 ~capacity_hint:64 in
              (* a single repeated key keeps the direct window at span 0;
                 two far-apart warm-up keys force the tagged fallback *)
              if force_tagged then begin
                ignore (Htable.insert m ht (Hashes.hash64 7L));
                ignore (Htable.insert m ht (Hashes.hash64 777_777_777L));
                check Alcotest.bool "fallback forced" true
                  (Htable.mode m ht <> `Direct)
              end;
              let h = Hashes.hash64 k in
              for _ = 1 to dups do
                ignore (Htable.insert m ht h)
              done;
              let e0, c0 = Htable.lookup m ht h in
              let rec walk e acc =
                let e', c = Htable.next m ht e h in
                if e' = 0 then List.rev (c :: acc) else walk e' (c :: acc)
              in
              (c0, walk e0 []))
          (* per-step costs, last one is the exhausted probe *)
        in
        let dups = 12 in
        let c0, steps =
          walk_costs ~force_tagged:true Htable.Tagged 987_654_321L dups
        in
        check Alcotest.int "chain length" dups (List.length steps);
        check Alcotest.bool "tagged lookup base" true (c0 >= 6 && c0 <= 14);
        List.iter
          (fun c -> check Alcotest.bool "tagged step bounded" true (c >= 4 && c <= 14))
          steps;
        (* cumulative cost is strictly monotone in chain position *)
        let _ =
          List.fold_left
            (fun acc c ->
              let acc' = acc + c in
              check Alcotest.bool "monotone" true (acc' > acc);
              acc')
            c0 steps
        in
        let c0d, steps_d = walk_costs Htable.Tagged 5L dups in
        check Alcotest.bool "direct lookup flat" true (c0d <= 5);
        List.iter
          (fun c -> check Alcotest.int "direct step is 3" 3 c)
          steps_d;
        let c0l, steps_l = walk_costs Htable.Legacy 987_654_321L dups in
        check Alcotest.int "legacy lookup base" 8 c0l;
        (* legacy: consecutive dups sit in adjacent slots: 6 + 4*0 *)
        List.iter
          (fun c -> check Alcotest.bool "legacy step" true (c >= 6))
          steps_l);
    Alcotest.test_case "legacy profile preserves pre-tag charges" `Quick
      (fun () ->
        with_profile Htable.Legacy (fun create ->
            let m = fresh_mem () in
            let ht, ccost = create m ~payload_size:8 ~capacity_hint:16 in
            check Alcotest.int "create 200" 200 ccost;
            let _, icost = Htable.insert m ht 0xABCL in
            check Alcotest.int "insert 10" 10 icost;
            let e, lcost = Htable.lookup m ht 0xABCL in
            check Alcotest.bool "found" true (e <> 0);
            check Alcotest.int "lookup 8" 8 lcost;
            let _, ncost = Htable.next m ht e 0xABCL in
            check Alcotest.int "next 6" 6 ncost));
  ]

let accounting_cases =
  [
    Alcotest.test_case "create and growth charge for arena zeroing" `Quick
      (fun () ->
        let m = fresh_mem () in
        let ht, cost = Htable.create m ~payload_size:8 ~capacity_hint:1024 () in
        let esz = Htable.entry_size m ht in
        check Alcotest.bool
          (Printf.sprintf "create charges zeroing (%d)" cost)
          true
          (cost >= 200 + (1024 * esz / 32));
        (* force fallback then growth; the growing insert must charge at
           least the fresh arena's zero cost *)
        let max_insert = ref 0 in
        for i = 0 to 2999 do
          let _, c = Htable.insert m ht (scrambled i) in
          if c > !max_insert then max_insert := c
        done;
        let cap = Htable.capacity m ht in
        check Alcotest.bool "grew" true (cap * esz > 1024 * esz);
        check Alcotest.bool
          (Printf.sprintf "grow insert charged zeroing (max %d)" !max_insert)
          true
          (!max_insert >= cap * esz / 32));
    Alcotest.test_case "grow frees the old arena (leak regression)" `Quick
      (fun () ->
        let m = fresh_mem () in
        let live0 = Memory.live_data_bytes m in
        let freed0 = Memory.freed_data_bytes m in
        let ht, _ = Htable.create m ~payload_size:16 ~capacity_hint:16 () in
        for i = 0 to 4999 do
          ignore (Htable.insert m ht (scrambled i))
        done;
        let esz = Htable.entry_size m ht in
        let cap = Htable.capacity m ht in
        let live = Memory.live_data_bytes m - live0 in
        (* live = header + current arena + tag array; every older arena
           must have been freed *)
        check Alcotest.bool
          (Printf.sprintf "no abandoned arenas (live %d, arena %d)" live
             (cap * esz))
          true
          (live <= 64 + (cap * esz) + (cap * 2) + 512);
        check Alcotest.bool "growth freed bytes" true
          (Memory.freed_data_bytes m > freed0));
    Alcotest.test_case "zero net growth across 100 grow cycles" `Quick
      (fun () ->
        let m = fresh_mem () in
        let live0 = Memory.live_data_bytes m in
        let s0 = Htable.stats () in
        for _round = 1 to 12 do
          let scope = Memory.new_scope () in
          Memory.with_scope scope (fun () ->
              let ht, _ = Htable.create m ~payload_size:8 ~capacity_hint:16 () in
              (* 3000 sparse keys drive 16 -> 8192: nine grows per round *)
              for i = 0 to 2999 do
                ignore (Htable.insert m ht (scrambled i))
              done);
          Memory.free_scope m scope;
          check Alcotest.int "live returns to baseline" live0
            (Memory.live_data_bytes m)
        done;
        let s1 = Htable.stats () in
        check Alcotest.bool "exercised 100+ grows" true
          (s1.Htable.grows - s0.Htable.grows >= 100));
  ]

let guard_cases =
  [
    Alcotest.test_case "stale entry address after grow is rejected" `Quick
      (fun () ->
        let m = fresh_mem () in
        let ht, _ = Htable.create m ~payload_size:8 ~capacity_hint:16 () in
        let h = scrambled 1 in
        ignore (Htable.insert m ht h);
        let e, _ = Htable.lookup m ht h in
        check Alcotest.bool "found" true (e <> 0);
        (* grow several times: the old arena is freed and recycled *)
        for i = 2 to 2000 do
          ignore (Htable.insert m ht (scrambled i))
        done;
        (match Htable.next m ht e h with
        | exception Qcomp_runtime.Rt_error.Query_error msg ->
            check Alcotest.bool "mentions staleness" true
              (String.length msg > 0)
        | e', _ ->
            (* only acceptable if the address is coincidentally still a
               valid slot of the *current* arena — never silent garbage *)
            Alcotest.failf "stale next returned 0x%x" e');
        (* a fresh lookup still works *)
        let e2, _ = Htable.lookup m ht h in
        check Alcotest.bool "fresh lookup fine" true (e2 <> 0));
    Alcotest.test_case "zero hash is normalized in every layout" `Quick
      (fun () ->
        List.iter
          (fun profile ->
            with_profile profile (fun create ->
                let m = fresh_mem () in
                let ht, _ = create m ~payload_size:8 ~capacity_hint:4 in
                let p, _ = Htable.insert m ht 0L in
                Memory.store64 m p 9L;
                let e, _ = Htable.lookup m ht 0L in
                check Alcotest.bool "found" true (e <> 0);
                check Alcotest.int64 "payload" 9L (Memory.load64 m (e + 8))))
          [ Htable.Legacy; Htable.Tagged ]);
    Alcotest.test_case "iter visits every payload once (direct + tagged)"
      `Quick (fun () ->
        List.iter
          (fun mk ->
            let m = fresh_mem () in
            let ht, _ = Htable.create m ~payload_size:8 ~capacity_hint:4 () in
            for i = 1 to 40 do
              let p, _ = Htable.insert m ht (mk i) in
              Memory.store64 m p (Int64.of_int i)
            done;
            let seen = Hashtbl.create 40 in
            Htable.iter m ht (fun p ->
                Hashtbl.replace seen (Memory.load64 m p) ());
            check Alcotest.int "40 distinct" 40 (Hashtbl.length seen))
          [ (fun i -> Hashes.hash64 (Int64.of_int i)) (* direct *);
            (fun i -> scrambled i) (* tagged *) ]);
  ]

(* ---------------- aggregate merge ---------------- *)

module I128 = Qcomp_support.I128

(* A payload of one int64 key and every state kind at every width:
   (state, how a row's value [v] feeds it). Avg is its Sum and Count. *)
let agg_key = Htable.Key { off = 0; width = 8 }

let agg_states =
  let st kind off width = { Htable.kind; off; width } in
  let dec v = I128.shift_left (I128.of_int v) 70 in
  [
    (st Htable.Count 8 8, fun _ -> I128.one);
    (st Htable.Sum 16 8, fun v -> I128.of_int v) (* sum int64 *);
    (st Htable.Sum 24 16, fun v -> dec v) (* sum decimal128 *);
    (st Htable.Sum 40 16, fun v -> dec v) (* avg: sum ... *);
    (st Htable.Count 56 8, fun _ -> I128.one) (* ... and count *);
    (st Htable.Min 64 4, fun v -> I128.of_int v) (* int32 *);
    (st Htable.Max 68 4, fun v -> I128.of_int v);
    (st Htable.Min 72 4, fun v -> I128.of_int (10_000 + v)) (* date *);
    (st Htable.Max 76 4, fun v -> I128.of_int (10_000 + v));
    (st Htable.Min 80 8, fun v -> I128.of_int (v * 1_000_000_007)) (* int64 *);
    (st Htable.Max 88 8, fun v -> I128.of_int (v * 1_000_000_007));
    (st Htable.Min 96 16, fun v -> dec v) (* decimal *);
    (st Htable.Max 112 16, fun v -> dec v);
  ]

let agg_desc =
  { Htable.keys = [ agg_key ]; states = List.map fst agg_states }

let agg_payload = 128

let read_state m p (s : Htable.agg_state) =
  if s.Htable.width = 16 then
    I128.make
      ~hi:(Memory.load64 m (p + s.Htable.off + 8))
      ~lo:(Memory.load64 m (p + s.Htable.off))
  else
    I128.of_int64
      (Memory.load m ~addr:(p + s.Htable.off) ~size:s.Htable.width ~sext:true)

let write_state m p (s : Htable.agg_state) v =
  if s.Htable.width = 16 then begin
    Memory.store64 m (p + s.Htable.off) (I128.to_int64 v);
    Memory.store64 m
      (p + s.Htable.off + 8)
      (I128.to_int64 (I128.shift_right_logical v 64))
  end
  else Memory.store m ~addr:(p + s.Htable.off) ~size:s.Htable.width (I128.to_int64 v)

(* the serial update a generated group-by body performs for one row *)
let combine (s : Htable.agg_state) cur x =
  match s.Htable.kind with
  | Htable.Count | Htable.Sum -> I128.add cur x
  | Htable.Min -> if I128.compare x cur < 0 then x else cur
  | Htable.Max -> if I128.compare x cur > 0 then x else cur

(* the group entry for [key] in [ht] (0 when absent), walking the chain *)
let find_group m ht ~hash key =
  let rec go (e, _) =
    if e = 0 || Int64.equal (Memory.load64 m (e + 8)) key then e
    else go (Htable.next m ht e hash)
  in
  go (Htable.lookup m ht hash)

let add_row m ht ~hash (key, v) =
  match find_group m ht ~hash:(hash key) key with
  | 0 ->
      let p, _ = Htable.insert m ht (hash key) in
      Memory.store64 m p key;
      List.iter (fun (s, f) -> write_state m p s (f v)) agg_states
  | e ->
      List.iter
        (fun (s, f) -> write_state m (e + 8) s (combine s (read_state m (e + 8) s) (f v)))
        agg_states

(* 300 rows over 40 keys, values of both signs *)
let agg_rows =
  List.init 300 (fun i -> (Int64.of_int ((i * 7) mod 40), ((i * 7919) mod 2001) - 1000))

let merge_cases =
  [
    Alcotest.test_case
      "merge_aggs: every state kind, every layout, equals the serial build"
      `Quick (fun () ->
        List.iter
          (fun (label, profile, hash, want_mode) ->
            let m = fresh_mem () in
            let create () =
              fst
                (Htable.create m ~profile ~payload_size:agg_payload
                   ~capacity_hint:16 ())
            in
            (* three lanes over contiguous morsels of the rows *)
            let lanes = Array.init 3 (fun _ -> create ()) in
            List.iteri
              (fun i r -> add_row m lanes.(i * 3 / 300) ~hash r)
              agg_rows;
            let serial = create () in
            List.iter (add_row m serial ~hash) agg_rows;
            let dst = create () in
            Array.iter
              (fun src -> ignore (Htable.merge_aggs m agg_desc ~dst ~src))
              lanes;
            check Alcotest.bool (label ^ ": layout") true
              (Htable.mode m dst = want_mode);
            check Alcotest.int (label ^ ": groups") (Htable.count m serial)
              (Htable.count m dst);
            for k = 0 to 39 do
              let key = Int64.of_int k in
              let e = find_group m dst ~hash:(hash key) key in
              let e' = find_group m serial ~hash:(hash key) key in
              if e = 0 then Alcotest.failf "%s: key %d missing" label k;
              List.iter
                (fun (s, _) ->
                  if not (I128.equal (read_state m (e + 8) s) (read_state m (e' + 8) s))
                  then
                    Alcotest.failf "%s: key %d state at +%d differs" label k
                      s.Htable.off)
                agg_states
            done)
          [
            ("legacy", Htable.Legacy, scrambled_key, `Legacy);
            ("tagged", Htable.Tagged, scrambled_key, `Tagged);
            ("direct", Htable.Tagged, dense_key, `Direct);
          ]);
    Alcotest.test_case "merge_aggs: a miss copies the whole payload" `Quick
      (fun () ->
        let m = fresh_mem () in
        let create () =
          fst (Htable.create m ~payload_size:agg_payload ~capacity_hint:16 ())
        in
        let src = create () and dst = create () in
        add_row m src ~hash:dense_key (5L, -123);
        add_row m src ~hash:dense_key (5L, 77);
        let cost = Htable.merge_aggs m agg_desc ~dst ~src in
        check Alcotest.bool "charged" true (cost > 0);
        check Alcotest.int "one group" 1 (Htable.count m dst);
        let e = find_group m dst ~hash:(dense_key 5L) 5L in
        let e' = find_group m src ~hash:(dense_key 5L) 5L in
        check Alcotest.string "payload bytes"
          (Memory.load_bytes m (e' + 8) agg_payload)
          (Memory.load_bytes m (e + 8) agg_payload));
    Alcotest.test_case
      "merge_aggs: equal hashes, different keys (SSO keys > 12 bytes)" `Quick
      (fun () ->
        (* payload: SSO key struct, then a count *)
        let desc =
          {
            Htable.keys = [ Htable.Str_key { off = 0 } ];
            states = [ { Htable.kind = Htable.Count; off = 16; width = 8 } ];
          }
        in
        let h = scrambled 7 in
        let long i = Printf.sprintf "a-long-group-key-%d" i in
        List.iter
          (fun (label, profile, extra) ->
            let m = fresh_mem () in
            let create () =
              fst (Htable.create m ~profile ~payload_size:24 ~capacity_hint:16 ())
            in
            let lane keys =
              let ht = create () in
              (* an entry under another hash, for the layouts that need
                 spread keys to leave direct addressing *)
              if extra then begin
                let p, _ = Htable.insert m ht (scrambled 99) in
                Sso.write m ~addr:p "other";
                Memory.store64 m (p + 16) 1L
              end;
              List.iter
                (fun s ->
                  let p, _ = Htable.insert m ht h in
                  Sso.write m ~addr:p s;
                  Memory.store64 m (p + 16) 1L)
                keys;
              ht
            in
            let a = lane [ long 1; long 2; "short" ]
            and b = lane [ long 2; long 3; "short" ] in
            let dst = create () in
            ignore (Htable.merge_aggs m desc ~dst ~src:a);
            ignore (Htable.merge_aggs m desc ~dst ~src:b);
            let rec chain (e, _) acc =
              if e = 0 then acc
              else
                chain (Htable.next m dst e h)
                  ((Sso.read m (e + 8), Memory.load64 m (e + 24)) :: acc)
            in
            check
              Alcotest.(list (pair string int64))
              (label ^ ": one group per distinct key")
              [ (long 1, 1L); (long 2, 2L); (long 3, 1L); ("short", 2L) ]
              (List.sort compare (chain (Htable.lookup m dst h) [])))
          [
            ("legacy", Htable.Legacy, false);
            ("tagged", Htable.Tagged, true);
            ("direct", Htable.Tagged, false);
          ]);
    Alcotest.test_case "merge_aggs: charge is positive and monotone in entries"
      `Quick (fun () ->
        ignore
          (List.fold_left
             (fun prev n ->
               let m = fresh_mem () in
               let create () =
                 fst
                   (Htable.create m ~payload_size:agg_payload ~capacity_hint:16 ())
               in
               let src = create () and dst = create () in
               for k = 0 to n - 1 do
                 add_row m src ~hash:scrambled_key (Int64.of_int k, k)
               done;
               let cost = Htable.merge_aggs m agg_desc ~dst ~src in
               check Alcotest.bool
                 (Printf.sprintf "%d entries: %d > %d cycles" n cost prev)
                 true (cost > prev);
               cost)
             0 [ 1; 10; 100; 1000 ]));
    Alcotest.test_case "merge_aggs: a Sum overflowing only when merged traps"
      `Quick (fun () ->
        List.iter
          (fun (s, big) ->
            let desc = { Htable.keys = [ agg_key ]; states = [ s ] } in
            let m = fresh_mem () in
            let create () =
              fst (Htable.create m ~payload_size:40 ~capacity_hint:16 ())
            in
            let lane () =
              let ht = create () in
              let p, _ = Htable.insert m ht (dense_key 1L) in
              Memory.store64 m p 1L;
              write_state m p s big;
              ht
            in
            let a = lane () and b = lane () and dst = create () in
            ignore (Htable.merge_aggs m desc ~dst ~src:a);
            match Htable.merge_aggs m desc ~dst ~src:b with
            | exception Rt_error.Query_error msg ->
                check Alcotest.string "overflow" "numeric overflow" msg
            | _ -> Alcotest.fail "merged sum overflow not trapped")
          [
            ( { Htable.kind = Htable.Sum; off = 8; width = 8 },
              I128.of_int64 (Int64.succ (Int64.div Int64.max_int 2L)) );
            ( { Htable.kind = Htable.Sum; off = 16; width = 16 },
              I128.shift_left I128.one 126 );
          ]);
  ]

let suite =
  mode_cases @ chain_cases @ probe_cases @ accounting_cases @ guard_cases
  @ merge_cases
