import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import foqcs.cli
import foqcs.report
from foqcs.circuit import BlockEncoding, Circuit
from foqcs.cli import build_parser, main
from foqcs.models import (
    HeisenbergParams,
    SpinGlassParams,
    random_spin_glass,
    spin_glass_hamiltonian,
)
from foqcs.pauli import PauliSum, hamiltonian_matrix, one_norm
from foqcs.sim import extract_block


def test_encode_heisenberg(tmp_path, capsys):
    out = tmp_path / "enc"
    code = main(["encode", "heisenberg", "--n", "4", "--gx", "1", "--gy", "1",
                 "--gz", "1", "--jx", "1", "--jy", "1", "--jz", "1",
                 "-o", str(out)])
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["normalization"] == pytest.approx(21.0)
    qasm = (out / "circuit.qasm").read_text()
    assert qasm.startswith("OPENQASM 2.0;")
    assert (out / "circuit.json").exists()


def test_encode_spin_glass_spec(tmp_path):
    spec = {
        "n": 2,
        "g": [[0.5, -0.25], [0.3, 0.4], [0.1, 0.9]],
        "J": [[[0.7]], [[-0.2]], [[0.6]]],
    }
    f = tmp_path / "sg.json"
    f.write_text(json.dumps(spec))
    code = main(["encode", "spin-glass", "--spec", str(f), "-o", str(tmp_path / "enc")])
    assert code == 0


def test_encode_rejects_bad_n(tmp_path):
    code = main(["encode", "heisenberg", "--n", "1", "--gx", "1",
                 "-o", str(tmp_path / "enc")])
    assert code == 2


def test_verify_heisenberg(capsys):
    code = main(["verify", "heisenberg", "--n", "3", "--seed", "7"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["ok"] and out["max_abs_error"] <= 1e-10


def test_verify_names_the_truncation_budget_on_stderr(capsys):
    # Spin glass PR drops residues of about 1e-17; the budget goes to stderr only.
    code = main(["verify", "spin-glass", "--n", "3", "--seed", "7"])
    cap = capsys.readouterr()
    assert code == 0 and json.loads(cap.out)["ok"]
    assert "truncation" not in cap.out
    assert re.search(r"spin-glass: block error \S+, truncation [1-9]\.\de-1[5-9] \(tol 1e-10\)",
                     cap.err), cap.err


def test_verify_dicke(capsys):
    code = main(["verify", "dicke", "--kind", "d2k", "--n", "5", "--k", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"]


def test_verify_generic_spec(tmp_path, capsys):
    h = {"n": 2, "terms": [{"coeff": [0.5, 0.0], "ops": "XZ"},
                           {"coeff": [0.0, 0.25], "ops": "YI"}]}
    f = tmp_path / "h.json"
    f.write_text(json.dumps(h))
    code = main(["verify", "generic", "--spec", str(f)])
    assert code == 0


def test_verify_corrupted_spec(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not valid json")
    assert main(["verify", "generic", "--spec", str(f)]) == 1


def test_verify_generic_empty_spec_path_is_an_input_error(capsys):
    assert main(["verify", "generic", "--spec", ""]) == 1
    assert capsys.readouterr().out == ""


def test_verify_width_guard(capsys):
    # n=13's dense 2^13 x 2^13 reference is over the entry budget, the only
    # resource guard left
    for model in ("heisenberg", "spin-glass"):
        assert main(["verify", model, "--n", "13"]) == 3
        assert ("verify's 2^13 x 2^13 reference is over the budget of 2^24 entries"
                in capsys.readouterr().err)


def test_counts_heisenberg_csv(capsys):
    code = main(["counts", "heisenberg", "--n", "2:16"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 16  # header + 15 rows
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[3] == cells[5]  # predicted == actual


def test_counts_dicke(capsys):
    code = main(["counts", "dicke", "--kind", "d1", "--n", "2:32"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    for row in lines:
        cells = row.split(",")
        assert int(cells[5]) == 2 * int(cells[1]) - 2


def test_counts_spin_glass_bounds(capsys):
    code = main(["counts", "spin-glass", "--n", "2:6", "--seed", "1"])
    assert code == 0
    for row in capsys.readouterr().out.strip().splitlines()[1:]:
        cells = row.split(",")
        assert int(cells[3]) <= int(cells[5]) <= int(cells[4])


def test_counts_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["counts", "spin-glass", "--n", "2:4", "--seed", "9", "-o", str(a)])
    main(["counts", "spin-glass", "--n", "2:4", "--seed", "9", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


# The count_sweep benchmark's command lists at benchmark seeds 1-3, with the
# sha256 of each CSV as first written. The CSVs hold only integer counts of
# models drawn from seeded PCG64 generators, so the digests do not depend on
# the platform; a changed count, row or column fails here.
GOLDEN_COUNTS = [
    ("heisenberg --n 2:64 --seed 249090651",
     "2c330e1b57792745f01e7ff2ee2615e0a710315712b06d93984289416907ea91"),
    ("spin-glass --n 2:24 --seed 2142223721",
     "994d8c408dc5c4a1b350612ca9ef8de76e843245894e669442eca99fdc6243c7"),
    ("dicke --kind d2k --n 2:32",
     "54c0c587d6f52227a1104bfc08d133e1141a4066abfefff79d1962d37a99a809"),
    ("dicke --kind d2kd --n 2:32",
     "39b52f6a8323d664d3dcae3cb85f7a0cb3473ab103a61c52c88203a298e94dcc"),
    ("heisenberg --n 2:16 --baseline --seed 1991838771",
     "27971014d03e982f41950f3eb80b15d9d475eb9db913066b0f6c5c670c4f724d"),
    ("heisenberg --n 2:64 --seed 1744689842",
     "2c330e1b57792745f01e7ff2ee2615e0a710315712b06d93984289416907ea91"),
    ("spin-glass --n 2:24 --seed 1428056809",
     "e195c9a3fa3705bea6b4ebaa3e902bb7c611716597a9dac5870127dc1b42cad8"),
    ("heisenberg --n 2:16 --baseline --seed 360912188",
     "abd45fb5b4875968642047f8bd4599ed4edbda383b818012e5cca4cfac57a4f1"),
    ("heisenberg --n 2:64 --seed 1399346721",
     "2c330e1b57792745f01e7ff2ee2615e0a710315712b06d93984289416907ea91"),
    ("spin-glass --n 2:24 --seed 135640209",
     "4b160925ea0a17c73f631416c02a81d03b4a60a10981c2b6ad00fa1bf1ec89a9"),
    ("heisenberg --n 2:16 --baseline --seed 1299262589",
     "2af0c62badae2c71ad577d2555f2fe9378c03433a2e8a8463adc98d735e49e9f"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_COUNTS, ids=[a for a, _ in GOLDEN_COUNTS])
def test_counts_csv_is_byte_identical_to_the_golden_digest(capsys, args, digest):
    assert main(["counts", *args.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of `encode heisenberg --n 8 --seed s` circuit.qasm, s = 1..3, with
# every angle rounded to 12 significant digits first, so that an ulp of libm
# cannot flip a digest; a changed gate, order, operand or angle fails here.
GOLDEN_HEISENBERG_QASM = {
    1: "f2531b0369a58954819b70e208e6f9d3f52e56d5397e59296376f3d3fd86bba8",
    2: "4954044eeb9f8ead1ad3265c77b22342c8370bce122b7b23f82cb9ac2f4defb9",
    3: "721aea2f54598ad558498aff27bead34f772752ab6578ffb19ac394b68a5c6ed",
}
QASM_ANGLE = re.compile(r"\(([^)]*)\)")


@pytest.mark.parametrize("seed", sorted(GOLDEN_HEISENBERG_QASM))
def test_heisenberg_qasm_matches_the_golden_digest(tmp_path, seed):
    argv = ["encode", "heisenberg", "--n", "8", "--seed", str(seed), "-o", str(tmp_path)]
    assert main(argv) == 0
    qasm = (tmp_path / "circuit.qasm").read_text()
    rounded = QASM_ANGLE.sub(lambda m: f"({float(m.group(1)):.12g})", qasm)
    assert hashlib.sha256(rounded.encode()).hexdigest() == GOLDEN_HEISENBERG_QASM[seed]


# sha256 of (circuit.qasm, circuit.json, meta.json) from the encode_export
# benchmark's models at seeds 1-3, as written before each distinct gate was
# exported once. The files hold every angle to 17 digits, so a changed gate,
# order, operand, angle type or zero sign fails here.
GOLDEN_EXPORTS = [
    ("heisenberg --n 64 --seed 1",
     ("ea4e182d3a713fdf0415e5f52fb110c82f0e9f172b45311073e5591f22cdb1d6",
      "28168b55da465f43fe2a1faaace4d2552936f2759edaf4ab78e4dcd4643b49df",
      "0e02bcee5be5c5ed91903226993e793f0c718a3f6500e74d8f2980ffdcdde1c0")),
    ("heisenberg --n 64 --seed 2",
     ("c5db27fd03b84a693ad83aba40df0c133206b3b2416d72df481f2a450d083119",
      "9b54b11e1472f87a0aa340c01b517e506a31511b58fec477a85c2c0fbd3ac7bb",
      "4fbf5727866037b46d729516f70a32e00f75cb74401961684e83d902091027a9")),
    ("heisenberg --n 64 --seed 3",
     ("f28bdf1a60a61aa77cf20fef03f9d12fc86ab5027159adfd482dea6201482692",
      "463397368a4ec7d4be1d62160751fbda730dc93e812f08a636b99df7266b5309",
      "b2405b2e39449f2614af6ba33530bc5c9977269fb5a2d5310282c455efbde761")),
    ("spin-glass --n 24 --seed 1",
     ("ba56e43ad290c223df83ca96b3e69d417b60989c2c0e1a22d597908b3ed90667",
      "fdcc58a98539eb863d17f2cffc44162e4c8e7e166e43b573d4c32eb0c0e6ce63",
      "8ffb596be558310614c10b2b7f797e4f3707381d5ba5fb9163bc0423b868ef83")),
    ("spin-glass --n 24 --seed 2",
     ("d5ced77f2be59a06b5ce3c71d0484cd294b77301ed66e485bf45d80120b9fbfe",
      "7c6e06419cc6d3549ec09bd5dda324af6b5099fb7a8c38676b53c9765d8c3e91",
      "4fef0722943641ca63078ba55ad42fdce7b249fc283979ed383b2001cfafe24a")),
    ("spin-glass --n 24 --seed 3",
     ("dfe6334cf7c385f8ba35cd2efd70db4f0700ec445655e5cc8d55b8e47d81d00a",
      "61730e5da81cb1fed689790115774c01f59ead8659ddc2bead2caec1a41ec207",
      "eb7ccca207a27d074f156378429aeca9441ff26a9a00b9c028cb296191c8356b")),
]


@pytest.mark.parametrize("args, digests", GOLDEN_EXPORTS, ids=[a for a, _ in GOLDEN_EXPORTS])
def test_encode_files_are_byte_identical_to_the_golden_digests(tmp_path, args, digests):
    assert main(["encode", *args.split(), "-o", str(tmp_path)]) == 0
    files = ("circuit.qasm", "circuit.json", "meta.json")
    assert tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                 for f in files) == digests


# sha256 of the stdout of the block_verify and state_verify benchmarks'
# commands at benchmark seeds 1-3, as printed before the sparse driver moved
# permutation gates without the kernel. The reports hold every error and
# probability to 17 digits, so a driver or matrix change that moves a digit
# fails here.
GOLDEN_VERIFY = [
    (("verify", "heisenberg", "--n", "4", "--seed", "1659014507"),
     "25478c90dbd1e670a0cfe2cb6ad2200127b14bb16b6ea6a5cdfdabdbbdb545bb"),
    (("verify", "spin-glass", "--n", "3", "--seed", "1280277009"),
     "910d39b75337e1acc7e88b91cd39df109f56de5bc62044768a3bd127a9ae9296"),
    (("verify", "heisenberg", "--n", "4", "--seed", "328941318"),
     "02f1243262be2ae8b110778777dba9f8c90e336766b6ee7af34634857761c65a"),
    (("verify", "spin-glass", "--n", "3", "--seed", "1391432774"),
     "ed51a3aab7f69d25b0378ad64153ffd4309cf24612da799243e5eedc1d235454"),
    (("verify", "heisenberg", "--n", "4", "--seed", "1407100044"),
     "9914cdcd430580d4b3d2877572256f053cfd975ff18ae0cb68b35ed75150608c"),
    (("verify", "spin-glass", "--n", "3", "--seed", "1221793484"),
     "01fd23a1da8f7e86c1dfd5c1aa418b3d76e0035bd47b64ac804fff8781d4f69d"),
    (("verify", "dicke", "--kind", "d1", "--n", "20"),
     "4ad8035700f51026b9acbb9deb9a67c433be825fc5716ac106e7493092df8c26"),
    (("verify", "dicke", "--kind", "d1u", "--n", "19", "--alphas",
      "[[-0.34449697383310957, 0.5301791048820591], [0.8355501023708986, "
      "-0.4176241936585259], [0.08812325520688373, 0.6989340707637322], "
      "[-0.4904519527147445, 0.3312172148798334], [0.254258780259077, "
      "0.142932528924809], [-0.7180129278009065, -0.3135227743209405], "
      "[0.0016414261922058197, 0.8109537425177675], [-0.42976505996851394, "
      "-0.3580291026679479], [0.3162004096723664, 0.08829184794229425], "
      "[-0.9416199436888079, -0.17861728640414504], [0.2371673620533742, "
      "0.46271438096077466], [-0.16340159515438754, 0.32220796558739073], "
      "[-0.15502445974658915, 0.20720556394586082], [-0.020242574983599763,"
      " 0.31750427317414154], [0.6775924343115732, -0.36488566323746097], "
      "[0.3329373220720683, -0.31425371980579647], [0.09930812799750158, "
      "0.5453506112191949], [-0.45960619563071314, -0.1756997644714192], "
      "[-0.6412702105248889, -0.6900302559463949]]"),
     "dcc2b2fb35699fd2c0b074715a9444359757454914d59ba42b872a78c3f15b48"),
    (("verify", "dicke", "--kind", "d2k", "--n", "18", "--k", "3"),
     "20ce53a0041e226583927b8521c267d0d29d6937210086cc1338c5c9de042200"),
    (("verify", "dicke", "--kind", "d2ku", "--n", "17", "--k", "2", "--alphas",
      "[[-0.3830931075814626, -0.1439437491916883], [-0.36372021286068684, "
      "0.21694207627405399], [0.3600250040469018, -0.9004504726526451], "
      "[-0.33488250782156653, 0.8624640214558087], [0.08419255042396348, "
      "0.2625909418967991], [0.2630214313046507, -0.8551870979593093], "
      "[-0.35659482595589626, 0.8912302849883121], [0.7238250363978876, "
      "0.4021395443924626], [0.11694249606630551, 0.3617385742103245], "
      "[0.18840217113966398, 0.6871274031021404], [-0.31473357603885893, "
      "-0.6011597645960198], [-0.4491225656131314, 0.5972341899301771], "
      "[-0.5378964944690413, -0.3474261215193269], [0.14330476094861314, "
      "0.6784199159920657], [-0.44675749368861095, -0.3944101582210908]]"),
     "5e81e721be47b2b1d8f9621b13610008037c6240de39c2171e98e673a792a28a"),
    (("verify", "dicke", "--kind", "d1d", "--n", "10"),
     "b27d74fc2f2ad14b7253d25f3a41bac376d1410a7d034d991f626f2dbb44893d"),
    (("verify", "dicke", "--kind", "d1du", "--n", "9", "--alphas",
      "[[-0.6377116688794245, 0.4133259582017922], [0.5562419843281644, "
      "0.7178935561478305], [0.10722821830648264, 0.5536775372006034], "
      "[-0.40900258139936235, 0.1999277111352781], [-0.1719455949062209, "
      "-0.4917738440876123], [-0.09095590294019823, -0.47245914567437663], "
      "[0.24114363188633872, -0.5924560205840959], [-0.18431415399230658, "
      "-0.9133554665036132], [-0.015042200369563542, -0.4638062389988063]]"),
     "10c15db74fcba82fbd5c1d210e90ef4c7891f3b4c295c0eba2affca08eda6314"),
    (("verify", "dicke", "--kind", "d2kd", "--n", "8", "--k", "2"),
     "20ce53a0041e226583927b8521c267d0d29d6937210086cc1338c5c9de042200"),
    (("verify", "dicke", "--kind", "d2kdu", "--n", "10", "--k", "3", "--alphas",
      "[[0.6916956571106708, 0.14447221858834128], [0.23385125913403215, "
      "-0.3614204154129105], [-0.7125434896950166, 0.6826868086514722], "
      "[-0.7276942729727671, -0.21388258025574908], [0.49289771050531755, "
      "0.3258962448446094], [0.0839799556439319, 0.49454584580688093], "
      "[0.46304720219169415, -0.6467046003930266]]"),
     "ba9b1ea9d310ce24bf1a027d73485bffe7b528b11c01eb2252897ab59014a114"),
    (("verify", "dicke", "--kind", "d1u", "--n", "19", "--alphas",
      "[[0.5152332556465822, 0.7573346128813048], [-0.5683603088521764, "
      "-0.6232306113134934], [0.818009250213149, 0.13338273902167], "
      "[-0.4816225381241213, -0.3608257449168657], [0.543080295695559, "
      "-0.7388769022923447], [0.6227993853085827, 0.24023124434215237], "
      "[-0.04082433258037684, 0.5926018530642502], [-0.14448265403275795, "
      "-0.3382459463318906], [-0.1527028559572141, 0.29323532559489346], "
      "[0.5292720993513509, 0.652229673909962], [0.12090030762824927, "
      "-0.23100872850180457], [0.29885789146286496, -0.06830999724309833], "
      "[-0.050385582636065504, -0.8428890034149648], [0.27046233828345184, "
      "0.6632890722647249], [-0.30080641121863805, 0.3407239984434862], "
      "[-0.3208216284228353, 0.5483834415223612], [0.7529198167385869, "
      "0.4541884254756924], [-0.5552217491624545, 0.6533534446085887], "
      "[-0.19802804054781797, -0.5896049628191365]]"),
     "92c3633f6e8633a4d45399914c1e96f95e7b4263a3421eed86ea4a8fdfcc162f"),
    (("verify", "dicke", "--kind", "d2ku", "--n", "17", "--k", "2", "--alphas",
      "[[0.14815712905002318, -0.9281737944331885], [-0.5768916979224447, "
      "0.4359838924864422], [0.23752375644519963, 0.5190389596206506], "
      "[0.6705327703189543, -0.0027020176413983976], [-0.4210853071216676, "
      "-0.8159322920043364], [0.14247003336502193, 0.34469297359116896], "
      "[0.7586844907609888, -0.2932772264803788], [0.6614259978818332, "
      "-0.5120073720009208], [0.5958792813339996, -0.20049481582655734], "
      "[0.17538809601855807, 0.22016249567386845], [0.47094223100688803, "
      "-0.02061258042652822], [0.6600164534187097, -0.6043766863668588], "
      "[-0.271741321799489, -0.20432108424168166], [0.5801471265885855, "
      "-0.27755169959702897], [-0.724379319884602, 0.33413985965904014]]"),
     "4de199dc5da8ce5bfde8647309d4e5e764ae0752785f801cebd1d6b4df6740d4"),
    (("verify", "dicke", "--kind", "d1du", "--n", "9", "--alphas",
      "[[0.0854466090897748, -0.7985709194107168], [-0.5101087106558704, "
      "0.6329692444777816], [0.002188410223520579, -0.2602757190473915], "
      "[-0.5307406701882762, 0.3887184441443003], [-0.3288261780093328, "
      "-0.3359825853488524], [-0.24114581275106597, 0.07532755121428272], "
      "[0.16462264699482, 0.4474266990729197], [0.25533610158977227, "
      "0.12728813664739133], [0.5021993577990566, -0.05372665621311038]]"),
     "28cf1d3c9586a4966d8a4661ad5d812df3e8b2221e9d3a946a08a627e7634d0b"),
    (("verify", "dicke", "--kind", "d2kdu", "--n", "10", "--k", "3", "--alphas",
      "[[0.39211831348997195, -0.15632136074569353], [-0.5861897624368262, "
      "0.061015368348810564], [0.008371775547367809, 0.6565733415871786], "
      "[0.3677319062203628, 0.2555517738452082], [0.16922497011707108, "
      "-0.590336499964769], [-0.5959590487703889, 0.4883588797661289], "
      "[-0.5426789614999116, -0.35196390324992705]]"),
     "a20edd941cbe508582c8072e2e5a7b1a98df8ad60f78fb5b7e4eb9a27d09f6ad"),
    (("verify", "dicke", "--kind", "d1u", "--n", "19", "--alphas",
      "[[0.5719035659264617, -0.345070584918205], [-0.27908276799784576, "
      "-0.3889771601282923], [0.7124878456145861, 0.19470338960959405], "
      "[0.6637113968905386, 0.12347821385203889], [-0.705567608040601, "
      "0.5759365751101118], [-0.28592075472308537, 0.33603381668244214], "
      "[0.212534547162381, 0.4850566129114327], [-0.010590153277277116, "
      "-0.27622949478060055], [-0.3631711996546295, -0.5504588119182929], "
      "[-0.71073909220549, 0.3951956791251005], [0.7457885146954807, "
      "0.15695421384743297], [0.507849473933328, 0.016312569188242476], "
      "[0.18638699066108755, 0.47516159707160033], [-0.5862878568468417, "
      "-0.20137447846538492], [0.19231279469149468, -0.8906931903459236], "
      "[-0.2426805637879183, -0.756488801529591], [0.5818062071898328, "
      "-0.641038505181591], [-0.17395159855662634, 0.7686342501193811], "
      "[0.486895936029497, 0.2565908728474821]]"),
     "299db3ec0413e19bc63564f25e6f9c9161b116c9f86fbb3daa06eebbf97747e6"),
    (("verify", "dicke", "--kind", "d2ku", "--n", "17", "--k", "2", "--alphas",
      "[[0.5744615811437211, -0.5809916851459548], [0.7892250985421332, "
      "-0.006470347035990276], [-0.03883906678982723, -0.7432852883763066],"
      " [-0.44184600733917756, -0.4974865608172461], [-0.6098794377384588, "
      "0.21180529777436338], [-0.4103210385095254, -0.19402657538772972], "
      "[-0.06407300444384097, -0.9441969502198544], [0.40842814089042906, "
      "-0.3632245035025006], [-0.06350084195360751, -0.7969542373546162], "
      "[0.8093367068810536, -0.48415329410984786], [0.6371966402984648, "
      "0.1983701471985372], [0.12060889864871058, -0.29721763796668094], "
      "[-0.39622572103178544, -0.12984662736781136], [-0.679252685416132, "
      "0.26736096028718875], [-0.3800654577029337, -0.26868812768788203]]"),
     "27d9df493ac770163ad7cadad272f9dd7b7c09a71ef815ac127e9f1a35e7ca3d"),
    (("verify", "dicke", "--kind", "d1du", "--n", "9", "--alphas",
      "[[0.012295322918626348, -0.2601408243452978], [-0.6687877442244857, "
      "-0.45771895463492496], [-0.39737826578446783, -0.3778459092678499], "
      "[0.20240724966510645, -0.32137774018434667], [-0.4372882577863825, "
      "-0.808181587891602], [0.44545201229897396, 0.8038957430601186], "
      "[0.1895765859868837, -0.2440009785064409], [-0.5868011638622752, "
      "0.7490497584724], [0.3975754233040327, -0.30135910302173863]]"),
     "888e65a4ca47f65c66957dd8d43842cddb8648efdda918ecb38caac6d806e118"),
    (("verify", "dicke", "--kind", "d2kdu", "--n", "10", "--k", "3", "--alphas",
      "[[-0.19881666285813113, 0.6470817607917494], [0.4273652182262935, "
      "0.8874163477261475], [-0.5260311254238551, 0.20372874007252903], "
      "[0.4165791917036272, -0.45664550036645885], [-0.6599632021322042, "
      "-0.41367324236944525], [0.4397345835051412, 0.3733440837531096], "
      "[-0.8814443026030603, 0.04421250971015746]]"),
     "19ac681e8a22b0eed08a43cc7bdb94164f600070145c14b0a56aed8344916d1d"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_VERIFY,
                         ids=[f"{i}-{a[1]}-{a[3]}" for i, (a, _) in enumerate(GOLDEN_VERIFY)])
def test_verify_report_is_byte_identical_to_the_golden_digest(capsys, argv, digest):
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_encode_keeps_the_sign_of_a_zero_angle(tmp_path):
    # gy = jy = jz = 0 give rz angles of 0.0 and -0.0 in the same register;
    # equal gates, but each keeps its own text.
    argv = ["encode", "heisenberg", "--n", "3", "--gx", "0.5", "--jx", "1", "-o", str(tmp_path)]
    assert main(argv) == 0
    qasm = (tmp_path / "circuit.qasm").read_text()
    assert "rz(0) subpr[4];" in qasm and "rz(-0) subpr[4];" in qasm
    text = (tmp_path / "circuit.json").read_text()
    assert '"angle": 0.0}' in text and '"angle": -0.0}' in text


def test_encoded_spin_glass_circuit_blocks_h_over_n(tmp_path):
    # The exported circuit is PR, SELECT and PL-dagger = PR-transpose, lowered;
    # read back as a select-only encoding, its block is H/N.
    assert main(["encode", "spin-glass", "--n", "2", "--seed", "1", "-o", str(tmp_path)]) == 0
    circ = Circuit.from_json((tmp_path / "circuit.json").read_text())
    h = spin_glass_hamiltonian(random_spin_glass(2, np.random.default_rng(1)))
    rep = extract_block(BlockEncoding(circ, one_norm(h)), hamiltonian_matrix(h) / one_norm(h))
    assert rep.max_abs_error <= 1e-12


def test_verify_dicke_spec_file(tmp_path, capsys):
    req = {"kind": "d1u", "n": 3, "alphas": [[0.6, 0.0], [0.0, 0.6], [0.52915026221, 0.0]]}
    f = tmp_path / "prep.json"
    f.write_text(json.dumps(req))
    code = main(["verify", "dicke", "--spec", str(f)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_encode_dicke(tmp_path):
    code = main(["encode", "dicke", "--kind", "d2kd", "--n", "4", "--k", "1",
                 "-o", str(tmp_path / "prep")])
    assert code == 0
    qasm = (tmp_path / "prep" / "circuit.qasm").read_text()
    assert "cx" in qasm


def test_verify_dicke_unbalanced_flag(capsys):
    code = main(["verify", "dicke", "--kind", "d2ku", "--n", "4", "--k", "2",
                 "--alphas", "[[0.8, 0.0], [0.0, -0.6]]"])
    assert code == 0


def test_verify_heisenberg_within_the_entry_budget(capsys):
    # n=5 is 6 + 3n = 21 qubits. The budget admits up to n=12, whose dense
    # reference alone is 2^24 entries; test_verify_wide_encodings goes to n=10.
    code = main(["verify", "heisenberg", "--n", "5", "--seed", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["ok"] and out["max_abs_error"] <= 1e-10


@pytest.mark.parametrize("argv", [
    ["heisenberg", "--n", "10", "--seed", "1"],
    ["spin-glass", "--n", "8", "--seed", "1"],
    ["spin-glass", "--n", "9", "--seed", "1"],
    ["dicke", "--kind", "d1", "--n", "62"],
    ["dicke", "--kind", "d1d", "--n", "31"],
    ["dicke", "--kind", "d1", "--n", "64"],
    ["dicke", "--kind", "d1d", "--n", "64"],
], ids=["heisenberg-10", "spin-glass-8", "spin-glass-9", "dicke-d1-62", "dicke-d1d-31",
        "dicke-d1-64", "dicke-d1d-64"])
def test_verify_wide_encodings(capsys, argv):
    # Widths 36, 48, 54, 62, 62, 64 and 128: the sparse paths keep every array
    # far within the entry budget, and the 2^n x 2^n reference is at most 2^20
    # entries. Past 62 index bits (spin glass n = 9 is width 54 plus 9 column
    # bits) the indices are Python ints in an object array.
    assert main(["verify", *argv]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["max_abs_error"] <= 1e-14


def test_verify_reads_no_width_variable():
    argv = [sys.executable, "-m", "foqcs", "verify", "heisenberg", "--n", "3"]
    env = {**os.environ, "PYTHONPATH": str(Path(foqcs.cli.__file__).parents[1])}
    runs = [subprocess.run(argv, capture_output=True, env=e, timeout=60)
            for e in (env, {**env, "FOQCS_MAX_WIDTH": "4"})]
    assert runs[0].returncode == 0
    assert [(r.returncode, r.stdout) for r in runs[1:]] == [(0, runs[0].stdout)]


def test_hamiltonian_is_built_only_by_verify_after_the_width_cap(tmp_path, monkeypatch):
    import foqcs.cli

    commands = (["encode", "heisenberg", "--n", "3"], ["encode", "spin-glass", "--n", "2"])
    for i, argv in enumerate(commands):
        assert main([*argv, "-o", str(tmp_path / f"ref{i}")]) == 0

    def refuse(p):
        raise AssertionError("the Hamiltonian was built")

    monkeypatch.setattr(foqcs.cli, "heisenberg_hamiltonian", refuse)
    monkeypatch.setattr(foqcs.cli, "spin_glass_hamiltonian", refuse)
    for i, argv in enumerate(commands):
        assert main([*argv, "-o", str(tmp_path / f"out{i}")]) == 0
        for name in ("circuit.qasm", "circuit.json", "meta.json"):
            assert ((tmp_path / f"out{i}" / name).read_bytes()
                    == (tmp_path / f"ref{i}" / name).read_bytes())
    # n=13's dense reference is over the entry budget
    assert main(["verify", "heisenberg", "--n", "13", "--seed", "1"]) == 3


def test_verify_dicke_does_not_import_numpy_ma():
    script = ("import sys, numpy\n"
              "alone = 'numpy.ma' in sys.modules\n"
              "from foqcs.cli import main\n"
              "code = main(['verify', 'dicke', '--kind', 'd1u', '--n', '3',\n"
              "             '--alphas', '[[0.6, 0], [0, 0.6], [0.52915026221, 0]]'])\n"
              "print(alone, code, 'numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(foqcs.cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=60)
    alone, code, loaded = run.stdout.splitlines()[-1].split()
    if alone == "True":
        pytest.skip("import numpy alone loads numpy.ma")
    assert (code, loaded) == ("0", "False")


def test_verify_dicke_nan_amplitude(capsys):
    code = main(["verify", "dicke", "--kind", "d1u", "--n", "3",
                 "--alphas", "[[NaN,0],[1,0],[1,0]]"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_verify_heisenberg_needs_n(capsys):
    assert main(["verify", "heisenberg"]) == 2
    assert "--n" in capsys.readouterr().err


def test_verify_tol_zero_is_kept(capsys):
    code = main(["verify", "heisenberg", "--n", "2", "--seed", "1", "--tol", "0"])
    out = json.loads(capsys.readouterr().out)
    assert out["tolerance"] == 0.0
    assert out["ok"] == (out["max_abs_error"] <= 0.0)
    assert code == (0 if out["ok"] else 2)
    code = main(["verify", "dicke", "--kind", "d1", "--n", "3", "--tol", "0"])
    out = json.loads(capsys.readouterr().out)
    assert out["tolerance"] == 0.0
    assert code == (0 if out["ok"] else 2)


def test_verify_generic_nan_coefficient(tmp_path, capsys):
    # A NaN term used to be dropped by the coefficient cutoff, giving "ok": true.
    f = tmp_path / "h.json"
    f.write_text('{"n": 1, "terms": [{"coeff": [NaN, 0], "ops": "Z"},'
                 ' {"coeff": [1, 0], "ops": "X"}]}')
    assert main(["verify", "generic", "--spec", str(f)]) == 2
    assert capsys.readouterr().out == ""


def test_non_finite_or_string_couplings(tmp_path, capsys):
    assert main(["encode", "heisenberg", "--n", "2", "--gx", "nan",
                 "-o", str(tmp_path / "enc")]) == 2
    f = tmp_path / "h.json"
    f.write_text(json.dumps({"n": 2, "gx": "0.5", "jz": 1.0}))
    assert main(["verify", "heisenberg", "--spec", str(f)]) == 2
    f.write_text('{"n": 2, "g": [[NaN, 0.5], [0.3, 0.4], [0.1, 0.9]],'
                 ' "J": [[[0.7]], [[-0.2]], [[0.6]]]}')
    assert main(["verify", "spin-glass", "--spec", str(f)]) == 2
    assert capsys.readouterr().out == ""


def test_dicke_kinds_resolve_through_one_table(capsys):
    assert main(["verify", "dicke", "--kind", "d2k", "--n", "5"]) == 2
    assert "needs k" in capsys.readouterr().err
    for kind in ("d3", "u", "d1uu", "D1"):
        assert main(["verify", "dicke", "--kind", kind, "--n", "4"]) == 2
        assert "unknown dicke kind" in capsys.readouterr().err
    assert main(["verify", "dicke", "--kind", "d2kdu", "--n", "4", "--k", "1",
                 "--alphas", "[[1, 0], [0, 1], [0.5, 0.5]]"]) == 0


@pytest.mark.parametrize("model, spec", [
    ("generic", {"n": 2, "terms": [{"coeff": ["0.5", 0], "ops": "XZ"}]}),
    ("generic", {"n": 2, "terms": [{"coeff": [0.5], "ops": "XZ"}]}),
    ("spin-glass", {"n": 2, "g": [[0.5, -0.25], [0.3, 0.4], [0.1, 0.9]], "J": 5}),
    ("heisenberg", [2, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0]),
    ("dicke", ["d1", 3]),
], ids=["string-coeff", "short-coeff", "scalar-J", "list-spec", "dicke-list-spec"])
def test_malformed_spec_is_an_input_error(tmp_path, capsys, model, spec):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    assert main(["verify", model, "--spec", str(f)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_malformed_alphas_is_an_input_error(capsys):
    assert main(["verify", "dicke", "--kind", "d1u", "--n", "2",
                 "--alphas", '[["a", "b"], [1, 0]]']) == 1
    assert "malformed alphas" in capsys.readouterr().err


def test_counts_dicke_k_zero_is_rejected(capsys):
    assert main(["counts", "dicke", "--kind", "d2k", "--n", "2:4", "--k", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_counts_dicke_baseline_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["counts", "dicke", "--kind", "d2k", "--n", "2:4", "--baseline"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--baseline" in captured.err


def test_counts_spin_glass_baseline(capsys):
    assert main(["counts", "spin-glass", "--n", "2:4", "--baseline"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        cells = row.split(",")
        assert int(cells[8]) > int(cells[5])  # baseline_cnot > cnot_actual


def test_counts_has_no_baseline_model():
    with pytest.raises(SystemExit) as exc:
        main(["counts", "baseline", "--n", "2:4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["counts", "dicke", "--kind", "d1", "--n", "2:3", "--k", "5"], "d1 takes no k"),
    (["counts", "heisenberg", "--n", "2:3", "--kind", "d2k"],
     "unrecognized arguments: --kind d2k"),
    (["verify", "dicke", "--kind", "d1", "--n", "3", "--alphas", "[[1, 0], [0, 1], [1, 1]]"],
     "takes no alphas"),
], ids=["counts-k-without-needs-k", "counts-kind-with-spin-model", "verify-alphas-balanced"])
def test_flag_the_model_does_not_use_is_rejected(capsys, argv, message):
    if message.startswith("unrecognized"):  # a flag the model has no parser for
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:  # a flag the model reads, with a value its kind does not take
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_counts_empty_range_is_rejected(capsys):
    assert main(["counts", "heisenberg", "--n", "5:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty range" in captured.err


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line.split("#")[0] for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("foqcs ")]
    assert len(lines) >= 10
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


# SHARED_FLAGS are the flags a command used to give every model; READS are the
# flags each (command, model) pair reads. A shared flag a pair does not read exits 2.
HEISENBERG = ("--spec", "--n", "--seed", "--gx", "--gy", "--gz", "--jx", "--jy", "--jz")
SHARED_FLAGS = {"encode": HEISENBERG + ("--k", "--kind", "--tol", "--alphas", "-o"),
             "verify": HEISENBERG + ("--k", "--kind", "--tol", "--alphas"),
             "counts": ("--n", "--k", "--kind", "--seed", "--format", "--baseline", "-o")}
MODEL_FLAGS = {"heisenberg": HEISENBERG, "spin-glass": ("--spec", "--n", "--seed"),
               "generic": ("--spec",), "dicke": ("--spec", "--kind", "--n", "--k", "--alphas")}
COMMAND_FLAGS = {"encode": ("-o",), "verify": ("--tol",)}
COUNTS_FLAGS = {"heisenberg": ("--n", "--seed", "--baseline", "--format", "-o"),
                "spin-glass": ("--n", "--seed", "--baseline", "--format", "-o"),
                "dicke": ("--n", "--kind", "--k", "--format", "-o")}
VALUES = {"--n": "2", "--k": "1", "--kind": "d1", "--seed": "1", "--spec": "h.json",
          "--tol": "1", "--alphas": "[[1, 0]]", "--format": "csv", "-o": "out",
          "--baseline": None, **{f: "1" for f in HEISENBERG[3:]}}
READS = {**{("counts", m): f for m, f in COUNTS_FLAGS.items()},
         **{(c, m): f + COMMAND_FLAGS[c] for c in COMMAND_FLAGS for m, f in MODEL_FLAGS.items()}}
UNREAD = [(c, m, f) for (c, m), reads in READS.items() for f in SHARED_FLAGS[c] if f not in reads]


def _argv(flags) -> list[str]:
    return [t for f in flags for t in (f, VALUES[f]) if t is not None]


def test_each_pair_parses_the_flags_it_reads():
    for (command, model), reads in READS.items():
        build_parser().parse_args([command, model, *_argv(reads)])
    shared = sum(len(SHARED_FLAGS[c]) for c, _ in READS)
    assert (shared, sum(map(len, READS.values())), len(UNREAD)) == (129, 59, 70)


@pytest.mark.parametrize("command, model, flag", UNREAD,
                         ids=[f"{c}-{m}-{f.lstrip('-')}" for c, m, f in UNREAD])
def test_flag_a_model_does_not_read_exits_2(tmp_path, monkeypatch, capsys,
                                           command, model, flag):
    monkeypatch.chdir(tmp_path)
    argv = [command, model]
    if command == "counts":
        argv += ["--n", "2:3"]
    elif command == "encode":
        argv += ["-o", "out"]
    if model == "generic":
        argv += ["--spec", "h.json"]
    argv += _argv([flag])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    "verify heisenberg --n 2 --seed 1 --kind d1 --k 3 --alphas '[[1,0]]'",
    "encode spin-glass --n 2 --kind d2k --tol 5 -o DIR",
    "verify --n 3 heisenberg",
], ids=["verify-heisenberg-dicke-flags", "encode-spin-glass-foreign-flags", "flag-before-model"])
def test_unread_flags_once_ignored_now_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec, argv, named", [
    ({"n": 3, "gx": 1.0}, ["verify", "heisenberg", "--n", "9", "--gy", "3"], "--n, --gy"),
    ({"kind": "d1", "n": 3}, ["verify", "dicke", "--kind", "d2k", "--k", "1"], "--kind, --k"),
    ({"n": 3, "gx": 1.0}, ["encode", "heisenberg", "--seed", "0", "-o", "enc"], "--seed"),
], ids=["heisenberg-n-gy", "dicke-kind-k", "explicit-default-seed"])
def test_spec_excludes_the_flags_that_describe_the_model(tmp_path, monkeypatch, capsys,
                                                        spec, argv, named):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps(spec))
    assert main(argv[:2] + ["--spec", "spec.json"] + argv[2:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--spec excludes {named}" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


@pytest.mark.parametrize("argv, named", [
    ("verify heisenberg --n 3 --gx 1 --seed 1", "--gx"),
    ("encode heisenberg --n 2 --seed 0 --jx 1 --jz -1 -o enc", "--jx, --jz"),
], ids=["verify-gx", "encode-explicit-default-seed"])
def test_seed_excludes_explicit_couplings(tmp_path, monkeypatch, capsys, argv, named):
    # --seed draws all six couplings, so next to a given one it would be ignored.
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--seed draws the couplings, so it excludes {named}" in captured.err
    assert list(tmp_path.iterdir()) == []
    assert main(["verify", "heisenberg", "--n", "2", "--gx", "1"]) == 0


@pytest.mark.parametrize("model, spec, key", [
    ("heisenberg", {"n": 2, "gx": 1, "jzz": 1}, "jzz"),
    ("dicke", {"kind": "d1u", "n": 2, "alpha": [[1, 0], [0, 1]]}, "alpha"),
])
def test_spec_key_the_model_does_not_read_is_an_input_error(tmp_path, capsys, model, spec, key):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    assert main(["verify", model, "--spec", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown {model} spec keys ['{key}']" in captured.err


HUGE = 10 ** 399  # 400 digits: a JSON integer that no float can hold


@pytest.mark.parametrize("model, spec", [
    ("generic", {"n": 2, "terms": [{"coeff": [HUGE, 0], "ops": "XZ"}]}),
    ("heisenberg", {"n": 2, "gx": HUGE, "jz": 1.0}),
    ("spin-glass", {"n": 2, "g": [[HUGE, 0.5], [0.3, 0.4], [0.1, 0.9]],
                    "J": [[[0.7]], [[-0.2]], [[0.6]]]}),
    ("dicke", {"kind": "d1u", "n": 2, "alphas": [[HUGE, 0], [1, 0]]}),
], ids=["generic-coeff", "heisenberg-gx", "spin-glass-g", "dicke-alphas"])
def test_huge_json_integer_is_an_input_error(tmp_path, capsys, model, spec):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    assert main(["verify", model, "--spec", str(f)]) == 1
    assert capsys.readouterr().out == ""


def test_huge_alphas_flag_integer_is_an_input_error(capsys):
    assert main(["verify", "dicke", "--kind", "d1u", "--n", "2",
                 "--alphas", json.dumps([[HUGE, 0], [1, 0]])]) == 1
    assert capsys.readouterr().out == ""


def test_amplitude_norm_overflow_is_a_domain_error(capsys):
    assert main(["verify", "dicke", "--kind", "d1u", "--n", "2",
                 "--alphas", "[[1e200, 0], [1, 0]]"]) == 2
    assert capsys.readouterr().out == ""


def test_verify_hamiltonian_below_the_term_cutoff_is_a_domain_error(capsys):
    # every term is dropped, so H/||H||_1 would be 0/0
    assert main(["verify", "heisenberg", "--n", "2", "--gx", "1e-16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cutoff" in captured.err


@pytest.mark.parametrize("argv", [
    ["counts", "dicke", "--kind", "d2k", "--n", "1"],
    ["counts", "dicke", "--kind", "d2kd", "--n", "1,2"],
], ids=["d2k-n1", "d2kd-n1-first"])
def test_counts_dicke_n_without_a_k_is_rejected(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no k" in captured.err


@pytest.mark.parametrize("command, model", list(READS), ids=[f"{c}-{m}" for c, m in READS])
def test_one_call_builds_one_parser_chain(tmp_path, monkeypatch, command, model):
    # The top-level parser, its three commands and the one leaf: 5, not all 15.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    main([command, model, *_argv(READS[command, model])])
    assert len(built) <= 5, built


COMMANDS = ("encode", "verify", "counts")
LEAVES = list(READS)
# Help and parse errors: main builds one leaf for a known (command, model)
# pair and the full tree otherwise, and must print what the full tree prints.
HELP_AND_ERRORS = [
    [], ["-h"], ["bogus"], ["-h", "verify"],
    *([c, "-h"] for c in COMMANDS), *([c] for c in COMMANDS),
    *([c, "bogus"] for c in COMMANDS), *([c, "--n", "2"] for c in COMMANDS),
    *([c, m, "-h"] for c, m in LEAVES), *([c, m, "--bogus", "1"] for c, m in LEAVES),
    *(["counts", m] for m in COUNTS_FLAGS),
    *([c, m, "--n", "x"] for c in COMMAND_FLAGS for m in ("heisenberg", "spin-glass", "dicke")),
]


@pytest.mark.parametrize("argv", HELP_AND_ERRORS, ids=[" ".join(a) or "none" for a in HELP_AND_ERRORS])
def test_help_and_parse_errors_match_the_full_parser(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")

    def run(fn):
        with pytest.raises(SystemExit) as exc:
            fn(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    assert run(main) == run(build_parser().parse_args)


def test_counts_range_over_the_sweep_limit_is_an_input_error(monkeypatch, capsys):
    # 10**15 values of n would take 8 PB as a list; the length is read from the
    # range, so nothing of that size is ever requested.
    monkeypatch.setattr(foqcs.report, "sweep", lambda *a, **k: pytest.fail("swept"))
    tracemalloc.start()
    try:
        code = main(["counts", "heisenberg", "--n", "2:1000000000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "input error" in captured.err and "sweep limit" in captured.err
    assert peak < 2e6
    limit = foqcs.cli.SWEEP_MAX_LEN
    assert foqcs.cli._parse_range(f"2:{limit + 1}") == list(range(2, limit + 2))
    with pytest.raises(ValueError, match="sweep limit"):
        foqcs.cli._parse_range(f"2:{limit + 2}")


# verify refuses a block model whose dense 2^n x 2^n reference is over the
# entry budget before a model is drawn: at 1e5 the spin-glass J alone would
# take 224 GiB, and at 1e20 the Heisenberg build would not end. Every command
# refuses spin-glass couplings over the budget; otherwise an n too large for
# the machine is an input error, raised before anything is built.
HUGE_N = str(10**20)


@pytest.mark.parametrize("argv, code", [
    (["verify", "spin-glass", "--n", "100000"], 3),
    (["verify", "heisenberg", "--n", HUGE_N], 3),
    (["verify", "dicke", "--kind", "d1", "--n", HUGE_N], 1),
    (["counts", "heisenberg", "--n", f"2:{HUGE_N}"], 1),
    (["counts", "dicke", "--kind", "d1", "--n", HUGE_N], 1),
    (["encode", "dicke", "--kind", "d1", "--n", HUGE_N, "-o", "out"], 1),
    (["counts", "spin-glass", "--n", "100000"], 3),
    (["encode", "spin-glass", "--n", "100000", "-o", "out"], 3),
    (["encode", "spin-glass", "--spec", "spec.json", "-o", "out"], 3),
], ids=["verify-spin-glass", "verify-heisenberg", "verify-dicke", "counts-heisenberg",
        "counts-dicke", "encode-dicke", "counts-spin-glass", "encode-spin-glass",
        "encode-spin-glass-spec"])
def test_huge_n_exits_with_its_code_before_building(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps({"n": 100000, "g": [], "J": []}))
    assert main(argv) == code
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out").exists()


BUDGET = "over the budget of 2^24 entries"


@pytest.mark.parametrize("model, spec, reason", [
    ("spin-glass", {"n": 100000, "g": [], "J": []}, BUDGET),
    ("heisenberg", {"n": 10**20, "gx": 1.0}, BUDGET),
    ("generic", {"n": 22, "terms": [{"coeff": [1.0, 0.0], "ops": "X" * 22}]}, BUDGET),
    ("dicke", {"kind": "d1", "n": 63}, None),
], ids=["spin-glass", "heisenberg", "generic", "dicke"])
def test_verify_refuses_a_spec_n_over_the_cap_before_reading_the_model(
        tmp_path, monkeypatch, capsys, model, spec, reason):
    def refuse(d):
        raise AssertionError("the model was read")

    for cls in (SpinGlassParams, HeisenbergParams, PauliSum):
        monkeypatch.setattr(cls, "from_dict", refuse)
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    code = main(["verify", model, "--spec", str(f)])
    captured = capsys.readouterr()
    if reason is None:
        # A Dicke state runs sparse at any n, so its spec has no cap: n = 63,
        # past the 62 bits of an int64 index, verifies.
        assert code == 0 and json.loads(captured.out)["ok"]
        return
    assert code == 3
    assert captured.out == ""
    assert reason in captured.err


def test_python_m_foqcs_runs_the_cli(capsys):
    argv = ["counts", "dicke", "--kind", "d1", "--n", "3"]
    code = main(argv)
    env = {**os.environ, "PYTHONPATH": str(Path(foqcs.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "foqcs", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)


# README: "Checks that depend on a value also exit 2": --k with a kind that
# needs no k, --k 0, --alphas with a balanced Dicke kind, and an empty --n
# range; each for every command that takes the flag.
ALPHAS3 = ["--alphas", "[[1, 0], [0, 1], [1, 1]]"]
VALUE_CHECKS = [
    *[(f"{c}-{kind}-k", [c, "dicke", "--kind", kind, "--n", "3", "--k", "1", *extra])
      for c in ("encode", "verify")
      for kind, extra in (("d1", []), ("d1u", ALPHAS3), ("d1d", []), ("d1du", ALPHAS3))],
    *[(f"counts-{kind}-k", ["counts", "dicke", "--kind", kind, "--n", "3", "--k", "1"])
      for kind in ("d1", "d1d")],
    *[(f"{c}-{kind}-k0", [c, "dicke", "--kind", kind, "--n", "4", "--k", "0"])
      for c in ("encode", "verify", "counts") for kind in ("d2k", "d2kd")],
    *[(f"{c}-{kind}-alphas", [c, "dicke", "--kind", kind, "--n", "4", *extra, *ALPHAS3])
      for c in ("encode", "verify") for kind, extra in (("d1", []), ("d2kd", ["--k", "1"]))],
    *[(f"counts-{m}-empty-range", ["counts", m, "--n", "5:2"])
      for m in ("heisenberg", "spin-glass", "dicke")],
]


@pytest.mark.parametrize("argv", [a for _, a in VALUE_CHECKS], ids=[i for i, _ in VALUE_CHECKS])
def test_readme_value_checks_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv + (["-o", "out"] if argv[0] == "encode" else [])) == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_dicke_spec_k_for_a_kind_without_k_exits_2(tmp_path, capsys):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps({"kind": "d1", "n": 3, "k": 1}))
    assert main(["verify", "dicke", "--spec", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d1 takes no k" in captured.err


@pytest.mark.parametrize("kind, n, k, alphas", [
    ("d1u", 3, None, [[1, 0], [1, 0], [0, 0]]),
    ("d1u", 4, None, [[3, 0], [1, 0], [0, 0], [0, 0]]),
    ("d2ku", 4, 1, [[1, 0], [1, 0], [0, 0]]),
    ("d1du", 3, None, [[1, 0], [1, 0], [0, 0]]),
    ("d2kdu", 4, 1, [[1, 0], [1, 0], [0, 0]]),
])
def test_trailing_zero_amplitudes_verify_at_1e_12(capsys, kind, n, k, alphas):
    # The angle at the last nonzero amplitude was acos of one ulp below 1, ~3e-8.
    argv = ["verify", "dicke", "--kind", kind, "--n", str(n), "--alphas", json.dumps(alphas)]
    assert main(argv + ([] if k is None else ["--k", str(k)])) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["tolerance"] == 1e-12 and out["max_abs_error"] <= 1e-12


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1e-12"])
@pytest.mark.parametrize("argv", [
    ["verify", "heisenberg", "--n", "3"],
    ["verify", "spin-glass", "--n", "2"],
    ["verify", "dicke", "--kind", "d1", "--n", "3"],
], ids=["heisenberg", "spin-glass", "dicke"])
def test_verify_refuses_a_negative_or_non_finite_tol_before_drawing(monkeypatch, capsys,
                                                                    argv, tol):
    def refuse(*args):
        raise AssertionError("the model was drawn")

    for name in ("random_heisenberg", "random_spin_glass", "dicke_kind"):
        monkeypatch.setattr(foqcs.cli, name, refuse)
    assert main(argv + [f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol must be finite and at least 0" in captured.err


@pytest.mark.parametrize("bad", [2.5, 3.0, "3", True], ids=repr)
@pytest.mark.parametrize("model, spec, key", [
    ("heisenberg", {"n": 3, "gx": 1.0}, "n"),
    ("spin-glass", {"n": 2, "g": [[0.5, -0.25], [0.3, 0.4], [0.1, 0.9]],
                    "J": [[[0.7]], [[-0.2]], [[0.6]]]}, "n"),
    ("generic", {"n": 2, "terms": [{"coeff": [0.5, 0.0], "ops": "XZ"}]}, "n"),
    ("dicke", {"kind": "d1", "n": 3}, "n"),
    ("dicke", {"kind": "d2k", "n": 4, "k": 1}, "k"),
], ids=["heisenberg-n", "spin-glass-n", "generic-n", "dicke-n", "dicke-k"])
def test_spec_n_or_k_that_is_not_an_int_is_an_input_error(tmp_path, capsys, model, spec,
                                                          key, bad):
    # Once 2.5 was read as 2, "2" as 2 and true as 1.
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    assert main(["verify", model, "--spec", str(f)]) == 0
    capsys.readouterr()
    f.write_text(json.dumps({**spec, key: bad}))
    assert main(["verify", model, "--spec", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{key} must be an integer, got {bad!r}" in captured.err
