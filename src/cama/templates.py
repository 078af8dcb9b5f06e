"""The seven prompt templates and their placeholder substitution.

Each template is reproduced verbatim; rendering substitutes only the
declared placeholders and rewrites nothing else, so prompt bytes are
stable across runs and suitable for transcript hashing.

Tags: p_g solution generation, p_p knowledge-point extraction,
p_r redundancy removal, p_u relation updates, p_t reasoning trace,
p_m factor matching, p_a graph-guided answering.
"""

from __future__ import annotations

import re


P_G = """\
# Question 

{question}

# Task

Carefully analyze the question and break it down step by step. 

**For the output, your reasoning should be enclosed in <think> </think> tags, and the final answer should be enclosed in <answer> </answer> tags.**"""

P_P = """\
# What is a Knowledge Point?
A knowledge point is a self-contained mathematical concept, technique, or principle that is applied in solving the problem. Below are two examples:

1. pythagorean theorem:\\n The pythagorean theorem states that in a right-angled triangle, the square of the length of the hypotenuse (the side opposite the right angle) is equal to the sum of the squares of the lengths of the other two sides. Mathematically, if $a$ and $b$ are the legs of a right triangle and $c$ is the hypotenuse, then the relationship is given by: $a^2 + b^2 = c^2$.
2. polar form of complex numbers:\\n The polar form of a complex number expresses the number in terms of its magnitude and angle (also called modulus and argument). If a complex number is given as $z = x + iy$, where $x$ is the real part and $y$ is the imaginary part, then it can also be represented as:$z = r (\\cos \\\\theta + i \\sin \\\\theta)$, where $r = |z| = \\sqrt{{x^2 + y^2}}$ is the modulus of $z$, and $\\\\theta = \\\\arg(z) = \\\\tan^{{-1}}\\left(\\\\frac{{y}}{{x}}\\\\right)$ is the argument (angle) of $z$. This form is also commonly written using Euler's formula as: $z = r e^\\\\{{i\\\\theta\\\\}}$.

# Input
A math question and its correct solution are provided below:

{question_solution_pairs}

# Task: Extract Key Knowledge Points
Your task is to **analyze the question and its solution** to extract **up to {lambda} distinct and essential knowledge points** required to solve the problem correctly. Refer to the two examples above as a guide for the level of detail and clarity expected.

Follow these steps:

1. **Identify up to {lambda} general, relevant knowledge points** that play a key role in solving the problem.
2. Each knowledge point should represent a **unique concept, skill, or method** used in the solution.
3. **Avoid redundancy**-each point should address a different aspect of the problem-solving process.

# About Output

Your output should include the following parts:

**Part 1**: Reasoning Process.

Describe your thought process for identifying and designing knowledge points. Consider the following: 
- Extract key ideas from the questions and solutions to form appropriate knowledge points.
- Clearly define the criteria for each knowledge point, explaining why it is relevant.

**Part 2**: Knowledge Points Filtration. 

You shoud decide whether to use each of the proposed knowledge points by following criteria:
- The knowledge point should contribute to correctly answering the question.
- Each knowledge point should focus on a specific aspect, avoiding overlap with other points.

**Part 3**: Final Output. 

Report the final list of knowledge points you have selected.
- **For each knowledge point, assign a clear and concise name, and provide a detailed description of its role-without referencing any specific question index.**

Report the factors **in following template:**

```
**Knowledge Point Name**: [Description of this knowledge point].
```"""

P_R = """\
# Input:

You are given a list of knowledge points along with their descriptions:

{list_all_knowledge_points}

# Task:

Some knowledge points in the list may be redundant - meaning they describe the same or very similar concepts. Your task is to:

1. Carefully analyze the list to identify any redundant knowledge points.
2. Determine which of the remaining knowledge points can **replace** the redundant ones.
3. Ensure that:
   * Each knowledge point marked as a replacement is **not** included in the removed list.
   * A single knowledge point may replace multiple redundant ones.

# Output Format:

* Wrap your reasoning in a <think>...</think> block.
* Present your final answer in an <answer>...</answer> block using the format below.
* Only use the **names** of the knowledge points (not their descriptions) in the output.

```
<answer>
**Removed Knowledge Points:**
[**<Knowledge Point A>**, **<Knowledge Point B>**, ...]

**Replacement Details:**
[**<Knowledge Point C>** can replace **<Knowledge Point A>**,
 **<Knowledge Point D>** can replace **<Knowledge Point B>**,
 ...]
</answer>
```"""

P_U = """\
# Input Data

The following two sets of question-answer pairs are provided:

* **Correctly Answered Questions**
  Each entry includes the original question, the correct solution, previously matched knowledge points, and currently recorded relations between those knowledge points (if any).
  `{qa_correct_answer}`

* **Incorrectly Answered Questions**
  Each entry includes the original question, the correct solution, previously matched knowledge points, and currently recorded relations between those knowledge points (if any).
  `{qa_incorrect_answer}`

# Task Instructions

Review the provided examples and perform the following steps:

1. **Analyze each question and its solution**, carefully considering how the different knowledge points are applied in solving the problem.
2. **Revise or correct the relationships between the knowledge points** listed in each example.
3. For each pair that **requires modification**, specify the corrected relationship using one of the following categories:

   * **Prerequisite** - Knowledge Point A must be used or understood before Knowledge Point B.
   * **Dependent** - The two knowledge points are conceptually or procedurally linked, but there's no clear ordering.
   * **Independent** - The two knowledge points are unrelated or not used together in this problem.

You may find some existing relations are incorrect or too vague; refine them for accuracy and utility.

---

# Output Format

Wrap your thinking process inside <think>...</think> and present your final answer inside <answer>...</answer>, formatted as a list of statements-one per line-using the structure below:

```
[**<Knowledge Point A>** is prerequisite/dependent/independent of **<Knowledge Point B>**.
 **<Knowledge Point C>** is prerequisite/dependent/independent of **<Knowledge Point D>**.
 ...]
```

Use **"prerequisite"** when Knowledge Point A must be understood before using Knowledge Point B in the context of solving the problem.
Use **"dependent"** if A and B are used together or closely related in solving the problem, but there is no clear applying order between them.
Use **"independent"** if A and B are not necessarily related or used together in the problem-solving context.

---

**Note:**

* Focus only on relationships that **need correction or clarification**.
* Avoid repeating vague or incorrect relations from the input - your role is to improve precision.
* Ensure that your suggested relations would help a learner understand **how to approach and solve similar problems** more effectively."""

P_T = """\
# Question 

{question}

# Task

Carefully analyze the question and break it down step by step to identify the key concepts or elements required to solve the problem. 

**For the output, your reasoning should be enclosed in <think> </think> tags, and the final answer should be enclosed in <answer> </answer> tags.**"""

P_M = """\
# Problem

{question_think}

# List of Factors 

{knowledge_point_descriptions}

# Task

Carefully read the problem and the reasoning behind it. Then, select the relevant factors from the list above that could help solve the problem.

# Response Format
Your response should be in the following format, listing the indices of the chosen factors:

**The chosen factors are: [Index of factor 1, Index of factor 2, ...].**"""

P_A = """\
# Question: 

{question}

# Elements to Consider:

{chosen_knowledge_points}

# Relationship(s) Among Element(s):

{knowledge_point_relations}

# Task

Consider the question carefully and work through the solution step by step, keeping in mind the elements provided and any relationships between them.
For the output, your reasoning should be enclosed in <think> </think> tags, and the final answer should be enclosed in <answer> </answer> tags.

The final answer must strictly follow the format:
**"The answer is: ___."**"""

TEMPLATES: dict[str, str] = {
    "p_g": P_G,
    "p_p": P_P,
    "p_r": P_R,
    "p_u": P_U,
    "p_t": P_T,
    "p_m": P_M,
    "p_a": P_A,
}

TEMPLATE_TAGS = tuple(TEMPLATES)

_PLACEHOLDER = re.compile(r"(?<!\{)\{([a-z_]+)\}(?!\})")

# each template split once into literal text at the even indices and
# placeholder names at the odd ones
_SEGMENTS: dict[str, list[str]] = {
    tag: _PLACEHOLDER.split(text) for tag, text in TEMPLATES.items()
}

PLACEHOLDERS: dict[str, frozenset[str]] = {
    tag: frozenset(segments[1::2]) for tag, segments in _SEGMENTS.items()
}


def render_template(tag: str, bindings: dict[str, str]) -> str:
    """Substitute the template's placeholders and return the prompt text.

    The literal segments are joined with the bindings in one pass, so
    braces inside binding values are never re-expanded.
    """
    if tag not in TEMPLATES:
        raise ValueError(f"no template registered for tag {tag!r}")
    for name in sorted(PLACEHOLDERS[tag]):
        if name not in bindings:
            raise ValueError(f"missing binding for placeholder {{{name}}}")
    parts = _SEGMENTS[tag].copy()
    parts[1::2] = [str(bindings[name]) for name in parts[1::2]]
    return "".join(parts)
