(* B-tree vs the Map module as a model, including interval endpoints as
   keys with list values and the in-order range walk. *)

open Qcomp_support
module M = Map.Make (Int)

let check = Alcotest.check

let prop ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

type op = Insert of int * int | Remove of int | Find of int

let gen_ops =
  QCheck2.Gen.(
    list
      (oneof
         [
           map2 (fun k v -> Insert (k, v)) (int_bound 500) small_int;
           map (fun k -> Remove k) (int_bound 500);
           map (fun k -> Find k) (int_bound 500);
         ]))

let run_model ops =
  let t = Btree.create () in
  let m = ref M.empty in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | Insert (k, v) ->
          Btree.insert t k v;
          m := M.add k v !m
      | Remove k ->
          Btree.remove t k;
          m := M.remove k !m
      | Find k -> if Btree.find t k <> M.find_opt k !m then ok := false)
    ops;
  (t, !m, !ok)

let unit_cases =
  [
    Alcotest.test_case "empty" `Quick (fun () ->
        let t : int Btree.t = Btree.create () in
        check Alcotest.int "len" 0 (Btree.length t);
        check Alcotest.(option int) "find" None (Btree.find t 1);
        check Alcotest.(option (pair int int)) "min" None (Btree.min_binding t);
        Btree.remove t 42 (* no-op, must not raise *));
    Alcotest.test_case "insert replaces" `Quick (fun () ->
        let t = Btree.create () in
        Btree.insert t 1 "a";
        Btree.insert t 1 "b";
        check Alcotest.int "len" 1 (Btree.length t);
        check Alcotest.(option string) "v" (Some "b") (Btree.find t 1));
    Alcotest.test_case "find_le/find_ge" `Quick (fun () ->
        let t = Btree.create () in
        List.iter (fun k -> Btree.insert t k (k * 10)) [ 10; 20; 30 ];
        let p = Alcotest.(option (pair int int)) in
        check p "le 25" (Some (20, 200)) (Btree.find_le t 25);
        check p "le 20" (Some (20, 200)) (Btree.find_le t 20);
        check p "le 5" None (Btree.find_le t 5);
        check p "ge 25" (Some (30, 300)) (Btree.find_ge t 25);
        check p "ge 30" (Some (30, 300)) (Btree.find_ge t 30);
        check p "ge 31" None (Btree.find_ge t 31));
    Alcotest.test_case "deep split and merge" `Quick (fun () ->
        let t = Btree.create () in
        for k = 0 to 2000 do
          Btree.insert t k k
        done;
        for k = 0 to 2000 do
          if k mod 3 <> 0 then Btree.remove t k
        done;
        check Alcotest.int "len" 667 (Btree.length t);
        check Alcotest.(option int) "999" (Some 999) (Btree.find t 999);
        check Alcotest.(option int) "998 gone" None (Btree.find t 998));
    Alcotest.test_case "regalloc pattern: occupancy lists" `Quick (fun () ->
        (* start -> list of ends *)
        let t = Btree.create () in
        let occupy s e =
          let prev = Option.value ~default:[] (Btree.find t s) in
          Btree.insert t s (e :: prev)
        in
        occupy 0 10;
        occupy 0 4;
        occupy 12 20;
        check Alcotest.(option (list int)) "two ends at 0" (Some [ 4; 10 ])
          (Btree.find t 0);
        (match Btree.find_le t 11 with
        | Some (0, ends) -> check Alcotest.bool "conflict" false (List.exists (fun e -> e > 11) ends)
        | _ -> Alcotest.fail "expected segment at 0");
        match Btree.find_ge t 11 with
        | Some (12, _) -> ()
        | _ -> Alcotest.fail "expected segment at 12");
  ]

let props =
  [
    prop "model: find agrees through mixed ops" gen_ops (fun ops ->
        let _, _, ok = run_model ops in
        ok);
    prop "model: final contents equal" gen_ops (fun ops ->
        let t, m, _ = run_model ops in
        Btree.to_list t = M.bindings m);
    prop "model: length equals cardinality" gen_ops (fun ops ->
        let t, m, _ = run_model ops in
        Btree.length t = M.cardinal m);
    prop "iteration sorted" QCheck2.Gen.(list (int_bound 1000)) (fun keys ->
        let t = Btree.create () in
        List.iter (fun k -> Btree.insert t k ()) keys;
        let l = List.map fst (Btree.to_list t) in
        l = List.sort_uniq compare keys);
    prop ~count:50 "min/max match model" QCheck2.Gen.(list (int_bound 1000)) (fun keys ->
        let t = Btree.create () in
        List.iter (fun k -> Btree.insert t k k) keys;
        let m = M.of_seq (List.to_seq (List.map (fun k -> (k, k)) keys)) in
        Btree.min_binding t = M.min_binding_opt m
        && Btree.max_binding t = M.max_binding_opt m);
    prop ~count:50 "find_le is greatest lower bound"
      QCheck2.Gen.(pair (list (int_bound 1000)) (int_bound 1000))
      (fun (keys, probe) ->
        let t = Btree.create () in
        List.iter (fun k -> Btree.insert t k ()) keys;
        let expect =
          List.filter (fun k -> k <= probe) (List.sort_uniq compare keys)
          |> List.rev
          |> function [] -> None | k :: _ -> Some (k, ())
        in
        Btree.find_le t probe = expect);
    prop "exists_range visits [lo, hi) in order, stops at the first hit"
      QCheck2.Gen.(
        quad (list (int_bound 1000)) (int_bound 1000) (int_bound 1000) (int_bound 1000))
      (fun (keys, lo, hi, stop) ->
        (* large trees have inner nodes: keys repeat through 0..999 *)
        let t = Btree.create () in
        List.iter (fun k -> Btree.insert t k (k * 2)) keys;
        let visited = ref [] in
        let hit =
          Btree.exists_range t ~lo ~hi (fun k v ->
              visited := (k, v) :: !visited;
              k >= stop)
        in
        let in_range = List.filter (fun k -> lo <= k && k < hi) (List.sort_uniq compare keys) in
        let rec upto = function
          | [] -> []
          | k :: rest -> if k >= stop then [ k ] else k :: upto rest
        in
        let expect = upto in_range in
        List.rev !visited = List.map (fun k -> (k, k * 2)) expect
        && hit = List.exists (fun k -> k >= stop) in_range);
  ]

let range_cases =
  [
    Alcotest.test_case "exists_range over a deep tree" `Quick (fun () ->
        let t = Btree.create () in
        for k = 0 to 4999 do
          Btree.insert t (3 * k) k
        done;
        let seen = ref [] in
        let hit =
          Btree.exists_range t ~lo:1000 ~hi:1013 (fun k _ ->
              seen := k :: !seen;
              false)
        in
        check Alcotest.bool "no hit" false hit;
        check Alcotest.(list int) "keys" [ 1002; 1005; 1008; 1011 ] (List.rev !seen);
        check Alcotest.bool "empty range" false
          (Btree.exists_range t ~lo:5 ~hi:5 (fun _ _ -> true));
        check Alcotest.bool "stops" true
          (Btree.exists_range t ~lo:0 ~hi:max_int (fun k _ -> k = 9));
        check Alcotest.bool "empty tree" false
          (Btree.exists_range (Btree.create ()) ~lo:0 ~hi:max_int (fun _ _ -> true)));
  ]

let suite = unit_cases @ range_cases @ props
